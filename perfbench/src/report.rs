//! Result reporting: flat name → number objects, the machine fingerprint,
//! and the final result line.

use std::fmt::Write as _;

/// An ordered list of named numbers, written as one flat JSON object.
#[derive(Clone, Debug, Default)]
pub struct Flat(pub Vec<(String, f64)>);

impl Flat {
    /// Appends (or replaces) `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// `{"a":1.5,"b":2}`; non-finite values are written as `null`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v)| format!("{}:{}", quote(n), number(*v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Parses [`Flat::to_json`] output (the pipeline child's report).
    pub fn parse(json: &str) -> Result<Self, String> {
        let body = json
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| format!("not a flat JSON object: {json:?}"))?;
        let mut out = Flat::default();
        for pair in body.split(',').filter(|p| !p.is_empty()) {
            let (name, value) = pair
                .split_once(':')
                .ok_or_else(|| format!("bad pair {pair:?}"))?;
            let value = match value.trim() {
                "null" => f64::NAN,
                v => v.parse().map_err(|_| format!("bad number {v:?}"))?,
            };
            out.push(name.trim().trim_matches('"'), value);
        }
        Ok(out)
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One metric as printed: name, value, unit.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// The final result line: `correct`, `attempted`, `failed` and the
/// metrics, each with its value and unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Machine and configuration stamp printed with every result, so runs
/// from different machines or settings can be told apart.
pub fn fingerprint(config: &[(&str, String)]) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        format!("\"nproc\":{nproc}"),
        format!("\"cpu\":{}", quote(&cpu)),
        format!("\"kernel\":{}", quote(&kernel)),
    ];
    fields.extend(
        config
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), quote(v))),
    );
    format!("{{\"fingerprint\":{{{}}}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_round_trips() {
        let mut f = Flat::default();
        f.push("pipeline_s", 53.25);
        f.push("fsm_states", 186.0);
        f.push("pipeline_s", 54.5);
        let back = Flat::parse(&f.to_json()).unwrap();
        assert_eq!(back.get("pipeline_s"), Some(54.5));
        assert_eq!(back.get("fsm_states"), Some(186.0));
        assert_eq!(back.0.len(), 2);
    }

    #[test]
    fn result_line_has_the_four_result_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }
}
