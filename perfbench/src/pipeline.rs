//! The pipeline child: trains the Dorado artifacts the serve workloads
//! deploy, scores them (the paper's makespan comparison and FSM-vs-GRU
//! agreement), and reports one flat JSON object on stdout.
//!
//! Untraced it runs `Pipeline::run`, exactly as `lahd pipeline` does.
//! Traced it runs the same phases one by one with a span around each
//! public phase method, and checks that the phased machine serialises to
//! the same bytes as `Pipeline::run`'s.

use std::path::Path;
use std::time::Instant;

use lahd::core::{
    save_artifacts, Comparison, GruVecPolicy, Pipeline, PipelineArtifacts, PipelineConfig,
};
use lahd::fsm::{compile_fsm, write_fsm, DefaultPolicy, HandcraftedFsm, Policy, VecPolicy};

use crate::report::Flat;

/// The pipeline configuration for a `--scale` name: `demo` is the scale
/// where the learned policy is competitive with the handcrafted one,
/// `tiny` the seconds-scale machine the churn workload serves.
pub fn config(scale: &str) -> Result<PipelineConfig, String> {
    match scale {
        "demo" => Ok(PipelineConfig::demo()),
        "tiny" => Ok(PipelineConfig::tiny()),
        other => Err(format!("unknown pipeline scale {other:?} (demo|tiny)")),
    }
}

fn fsm_bytes(art: &PipelineArtifacts) -> Vec<u8> {
    let mut out = Vec::new();
    write_fsm(&art.fsm, &mut out).expect("writing to a Vec cannot fail");
    out
}

fn timed<T>(report: &mut Flat, name: &str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    report.push(name, t.elapsed().as_secs_f64());
    v
}

/// Runs the phases of [`Pipeline::run`] one by one, timing each.
fn run_phased(p: &Pipeline, report: &mut Flat) -> PipelineArtifacts {
    let c = &p.config;
    let (std_traces, real_traces) = timed(report, "workload.traces_s", || p.make_traces());
    let (agent, convergence) = timed(report, "rl.train_s", || {
        p.train_with_curriculum(&std_traces, &real_traces)
    });
    let episodes = c.std_epochs * std_traces.len() + c.real_epochs * real_traces.len();
    report.push("rl.episodes", episodes as f64);
    let t = Instant::now();
    let raw = p.collect_dataset(&agent, &real_traces);
    let mut collect_s = t.elapsed().as_secs_f64();
    let (mut obs_qbn, mut hidden_qbn) = timed(report, "qbn.fit_s", || p.fit_qbns(&raw));
    timed(report, "qbn.finetune_s", || {
        p.fine_tune_quantized(&agent, &mut obs_qbn, &mut hidden_qbn, &real_traces)
    });
    let t = Instant::now();
    let quantized = p.collect_quantized_dataset(&agent, &obs_qbn, &hidden_qbn, &real_traces);
    collect_s += t.elapsed().as_secs_f64();
    report.push("core.collect_s", collect_s);
    let (fsm, raw_states) = timed(report, "fsm.extract_s", || {
        p.extract(&quantized, &obs_qbn, &hidden_qbn)
    });
    PipelineArtifacts {
        scenario: c.scenario,
        agent,
        convergence,
        obs_qbn,
        hidden_qbn,
        fsm,
        raw_states,
        dataset_len: quantized.len(),
        baseline: None,
        std_traces,
        real_traces,
    }
}

/// Saves atomically: into a sibling directory, then renamed over `out`,
/// so a run cut short never leaves a half-written bundle behind.
fn save(art: &PipelineArtifacts, out: &Path) -> Result<(), String> {
    let tmp = out.with_extension("tmp");
    let _ = std::fs::remove_dir_all(&tmp);
    save_artifacts(art, &tmp).map_err(|e| format!("save artifacts: {e}"))?;
    let _ = std::fs::remove_dir_all(out);
    std::fs::rename(&tmp, out).map_err(|e| format!("publish artifacts: {e}"))
}

/// Mean makespans of the default, handcrafted, GRU and FSM policies on
/// the artifacts' real trace set (the `lahd evaluate` comparison).
fn makespans(cfg: &PipelineConfig, art: &PipelineArtifacts) -> [f64; 4] {
    let mut default_policy = DefaultPolicy;
    let mut handcrafted = HandcraftedFsm::tuned();
    let mut gru = art.gru_policy(cfg.sim.clone());
    let mut fsm = art.fsm_policy(cfg.sim.clone(), cfg.metric, cfg.nn_matching);
    let mut policies: Vec<&mut dyn Policy> =
        vec![&mut default_policy, &mut handcrafted, &mut gru, &mut fsm];
    let c = Comparison::run(&mut policies, &cfg.sim, &art.real_traces, 999);
    [0, 1, 2, 3].map(|col| c.mean_makespan(col))
}

/// Step-level agreement of the FSM (driving) with the greedy GRU teacher
/// (following on the same observations) over the real trace set.
fn agreement(cfg: &PipelineConfig, art: &PipelineArtifacts) -> f64 {
    let scenario = cfg.scenario.get();
    let mut fsm = art.fsm_executor(cfg.metric, cfg.nn_matching);
    let mut gru = GruVecPolicy::new(art.agent.clone());
    let (mut matches, mut total) = (0usize, 0usize);
    for (i, trace) in art.real_traces.iter().enumerate() {
        fsm.reset();
        gru.reset();
        let mut rollout = scenario.make_rollout(&cfg.sim, trace.clone(), 999 + i as u64);
        while !rollout.is_done() {
            let obs = rollout.observe();
            let a = fsm.act_vec(&obs);
            matches += usize::from(a == gru.act_vec(&obs));
            total += 1;
            rollout.step(a);
        }
    }
    crate::stats::share(matches as u64, total as u64)
}

/// Child entry: `pipeline --scale S --out DIR [--phased]`. Untraced, runs
/// `Pipeline::run` and saves the artifacts to `DIR`. Phased, runs the
/// phases one by one and compares the machine with the one in `DIR`
/// (running and saving `Pipeline::run` first when `DIR` holds none).
/// Prints the report as one JSON line.
pub fn child(scale: &str, out: &Path, phased: bool) -> Result<(), String> {
    let cfg = config(scale)?;
    let p = Pipeline::new(cfg.clone());
    let mut report = Flat::default();
    let saved = std::fs::read(out.join("fsm.txt")).ok();
    let mut art = None;
    if !phased || saved.is_none() {
        // Seconds-scale pipelines repeat so the median is steady; every
        // repeat must produce the same machine.
        let repeats = if scale == "tiny" { 9 } else { 1 };
        let mut times = Vec::new();
        for _ in 0..repeats {
            let t = Instant::now();
            let run = p.run();
            times.push(t.elapsed().as_secs_f64());
            if art
                .as_ref()
                .is_some_and(|a| fsm_bytes(a) != fsm_bytes(&run))
            {
                return Err("Pipeline::run is not deterministic".to_string());
            }
            art = Some(run);
        }
        report.push(
            "pipeline_s",
            crate::stats::median(&times).expect("non-empty"),
        );
        save(art.as_ref().expect("ran above"), out)?;
    }
    if phased {
        let t = Instant::now();
        let stepwise = run_phased(&p, &mut report);
        report.push("pipeline.phased_s", t.elapsed().as_secs_f64());
        let reference = match &art {
            Some(run) => fsm_bytes(run),
            None => saved.unwrap_or_default(),
        };
        let same = fsm_bytes(&stepwise) == reference;
        report.push("fsm.bytes_identical", f64::from(u8::from(same)));
        art = Some(stepwise);
    }
    let art = art.expect("one of the two paths ran");
    let t = Instant::now();
    let compiled = compile_fsm(&art.fsm, &art.obs_qbn, cfg.metric, cfg.nn_matching)
        .map_err(|e| format!("extracted machine does not compile: {e}"))?;
    report.push("fsm.compile_s", t.elapsed().as_secs_f64());
    report.push("fsm.compiled_states", compiled.num_states() as f64);
    let t = Instant::now();
    let means = makespans(&cfg, &art);
    let agree = agreement(&cfg, &art);
    report.push("core.eval_s", t.elapsed().as_secs_f64());
    report.push("makespan.default", means[0]);
    report.push("makespan.handcrafted", means[1]);
    report.push("makespan.gru", means[2]);
    report.push("makespan.fsm", means[3]);
    report.push("fsm_makespan_gain", means[1] / means[3]);
    report.push("fsm_agreement", agree);
    report.push("fsm_states", art.fsm.num_states() as f64);
    report.push("fsm.symbols", art.fsm.num_symbols() as f64);
    report.push("fsm.transitions", art.fsm.num_transitions() as f64);
    report.push("fsm.raw_states", art.raw_states as f64);
    report.push("qbn.dataset_rows", art.dataset_len as f64);
    report.push(
        "pipeline.mem_mb",
        crate::daemon::peak_rss_mb("/proc/self/status"),
    );
    println!("{}", report.to_json());
    Ok(())
}
