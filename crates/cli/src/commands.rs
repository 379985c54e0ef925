//! The CLI subcommands.
//!
//! Every command returns `Result<(), DcfbError>`; `main` maps the
//! error onto the documented exit codes. No command calls
//! `std::process::exit` or panics on bad input.

use crate::args::Cli;
use crate::json::JsonObject;
use dcfb_cache::CacheConfig;
use dcfb_errors::DcfbError;
use dcfb_frontend::ShotgunBtbConfig;
use dcfb_sim::{analysis, PrefetcherKind, SimConfig, SimReport};
use dcfb_trace::{InstrStream, IsaMode, ReadMode};
use dcfb_workloads::{
    all_workloads, load_trace, ResolvedWorkload, Walker, MIX_SYNTAX, TRACE_SYNTAX,
};
use std::sync::Arc;

fn config_for(cli: &Cli, method: &str) -> Result<SimConfig, DcfbError> {
    let Some(mut cfg) = SimConfig::for_method(method) else {
        return Err(DcfbError::UnknownMethod {
            name: method.to_owned(),
            available: dcfb_prefetch::method_names().map(str::to_owned).collect(),
        });
    };
    cfg.warmup_instrs = cli.warmup;
    cfg.measure_instrs = cli.measure;
    cfg.isa = cli.isa;
    if cli.isa == IsaMode::Variable {
        // Branch footprints need somewhere to live (§V-D).
        cfg.uncore.dvllc = true;
    }
    cfg.validate()?;
    Ok(cfg)
}

/// One run of `cfg` on `source` at the CLI's trace seed.
fn simulate(source: &ResolvedWorkload, cfg: SimConfig, cli: &Cli) -> Result<SimReport, DcfbError> {
    Ok(dcfb_sim::run(source, cfg, cli.seed)?.report)
}

/// `dcfb list`
pub fn list() {
    println!("workloads (Table IV):");
    for w in all_workloads() {
        println!(
            "  {:16} ~{:>5.0} KiB code, {} functions",
            w.name,
            w.params.approx_footprint_kib(),
            w.params.functions
        );
    }
    println!("\nmethods (§VI-D, from the method registry):");
    for m in dcfb_prefetch::method_names() {
        println!("  {m}");
    }
    println!("\nworkload sources (the registry behind --workload):");
    println!("  NAME                            a synthetic workload from the table above");
    println!("  {MIX_SYNTAX}    multi-tenant round-robin interleaving");
    println!("  {TRACE_SYNTAX}");
}

/// `dcfb run`
pub fn run(cli: &Cli) -> Result<(), DcfbError> {
    let spec = cli.require_source()?;
    let cfg = config_for(cli, &cli.method)?;
    let base_cfg = config_for(cli, "Baseline")?;
    let resolved = spec.resolve(cfg.isa)?;
    let base = simulate(&resolved, base_cfg, cli)?;
    let r = simulate(&resolved, cfg, cli)?;
    if cli.json {
        println!("{}", report_json(&r, Some(&base)).render());
        return Ok(());
    }
    print_report(&r, &base);
    Ok(())
}

/// `dcfb compare`
pub fn compare(cli: &Cli) -> Result<(), DcfbError> {
    let resolved = cli.require_source()?.resolve(cli.isa)?;
    let base = simulate(&resolved, config_for(cli, "Baseline")?, cli)?;
    println!(
        "workload: {} | baseline IPC {:.3}\n",
        resolved.name(),
        base.ipc()
    );
    println!(
        "{:14} {:>7} {:>8} {:>9} {:>9} {:>9}",
        "method", "IPC", "speedup", "coverage", "FSCR", "lookups"
    );
    for m in &cli.methods {
        let r = simulate(&resolved, config_for(cli, m)?, cli)?;
        println!(
            "{:14} {:7.3} {:7.2}x {:8.1}% {:8.1}% {:8.2}x",
            m,
            r.ipc(),
            r.speedup_over(&base),
            r.miss_coverage_over(&base) * 100.0,
            r.fscr_over(&base) * 100.0,
            r.lookups_over(&base),
        );
    }
    Ok(())
}

/// `dcfb analyze`
pub fn analyze(cli: &Cli) -> Result<(), DcfbError> {
    let w = cli.require_synthetic()?;
    let image = w.image(cli.isa);
    let (cond, uncond, indirect, rets) = image.branch_census();
    println!("workload: {}", w.name);
    println!(
        "  code            : {} KiB in {} blocks",
        image.code_bytes() / 1024,
        image.code_blocks()
    );
    println!(
        "  branch sites    : {cond} cond / {uncond} uncond / {indirect} indirect / {rets} ret"
    );

    let limit = cli.measure;
    let mut walker = Walker::new(Arc::clone(&image), cli.seed);
    let (seq, disc) = analysis::sequential_miss_fraction(&mut walker, CacheConfig::l1i(), limit);
    println!(
        "  L1i misses      : {:.1}% sequential ({} seq / {} disc) [Fig. 2]",
        100.0 * seq as f64 / (seq + disc).max(1) as f64,
        seq,
        disc
    );
    let mut walker = Walker::new(Arc::clone(&image), cli.seed);
    let pat = analysis::pattern_predictability(&mut walker, CacheConfig::l1i(), limit);
    println!(
        "  4-block pattern : {:.1}% predictable [Fig. 6]",
        pat * 100.0
    );
    let mut walker = Walker::new(Arc::clone(&image), cli.seed);
    let stab = analysis::discontinuity_stability(&mut walker, limit);
    println!(
        "  discontinuities : {:.1}% same-branch [Fig. 7]",
        stab * 100.0
    );
    for per_bf in [2usize, 4] {
        let unc = analysis::branch_footprint_coverage(&image, per_bf);
        println!(
            "  BF({per_bf} offsets)   : {:.2}% branches uncovered [Fig. 8]",
            unc * 100.0
        );
    }
    Ok(())
}

/// `dcfb profile` — one telemetry-instrumented run, exported three
/// ways: a versioned-schema JSON metrics document, a CSV time series,
/// and Chrome trace-event JSON (load in `chrome://tracing` / Perfetto).
pub fn profile(cli: &Cli) -> Result<(), DcfbError> {
    let mut cfg = config_for(cli, &cli.method)?;
    cfg.telemetry = true;
    let resolved = cli.require_source()?.resolve(cfg.isa)?;
    let run = dcfb_sim::run(&resolved, cfg, cli.seed)?;
    let (r, telem) = match run.telemetry {
        Some(telem) => (run.report, telem),
        None => return Err(DcfbError::Config("telemetry was not recorded".into())),
    };
    telem
        .doc
        .validate()
        .map_err(|e| DcfbError::Config(format!("telemetry export failed validation: {e}")))?;

    let prefix = cli.out.as_deref().unwrap_or("profile");
    let metrics_path = format!("{prefix}.metrics.json");
    let series_path = format!("{prefix}.series.csv");
    let trace_path = format!("{prefix}.trace.json");
    std::fs::write(&metrics_path, telem.doc.to_json())
        .map_err(|e| DcfbError::io(&metrics_path, &e))?;
    std::fs::write(&series_path, telem.doc.to_csv())
        .map_err(|e| DcfbError::io(&series_path, &e))?;
    std::fs::write(&trace_path, telem.chrome_trace())
        .map_err(|e| DcfbError::io(&trace_path, &e))?;

    println!(
        "workload : {} | method: {} | IPC {:.3}",
        r.workload,
        r.method,
        r.ipc()
    );
    println!();
    println!(
        "{:16} {:>9} {:>9} {:>7} {:>9} {:>9}",
        "prefetcher", "issued", "accurate", "late", "evicted", "useless"
    );
    for t in &telem.doc.timeliness {
        println!(
            "{:16} {:>9} {:>9} {:>7} {:>9} {:>9}",
            t.source, t.issued, t.accurate, t.late, t.early_evicted, t.useless
        );
    }
    if telem.doc.timeliness.is_empty() {
        println!("(no prefetches issued)");
    }
    println!();
    println!(
        "series   : {} windows of ~{} cycles",
        telem.doc.series.len(),
        telem.doc.window_cycles
    );
    println!("wrote {metrics_path}, {series_path}, {trace_path}");
    Ok(())
}

/// `dcfb sweep-btb`
pub fn sweep_btb(cli: &Cli) -> Result<(), DcfbError> {
    let resolved = cli.require_source()?.resolve(cli.isa)?;
    println!("workload: {}\n", resolved.name());
    println!(
        "{:>10} {:>14} {:>10} {:>13} {:>16}",
        "BTB scale", "ours (IPC)", "Shotgun", "ours/Shotgun", "footprint miss"
    );
    for scale in [1.0f64, 0.5, 0.25, 0.125] {
        let mut ours = config_for(cli, "SN4L+Dis+BTB")?;
        ours.btb.entries = ((ours.btb.entries as f64 * scale) as usize).max(64) / 4 * 4;
        let ours_rep = simulate(&resolved, ours, cli)?;
        let mut shot = config_for(cli, "Shotgun")?;
        shot.prefetcher = PrefetcherKind::Shotgun(ShotgunBtbConfig::scaled(scale));
        let shot_rep = simulate(&resolved, shot, cli)?;
        println!(
            "{:>10} {:>14.3} {:>10.3} {:>12.2}x {:>15.1}%",
            format!("{scale:.3}x"),
            ours_rep.ipc(),
            shot_rep.ipc(),
            ours_rep.ipc() / shot_rep.ipc().max(1e-9),
            shot_rep
                .shotgun
                .map(|s| s.footprint_miss_ratio() * 100.0)
                .unwrap_or(0.0)
        );
    }
    Ok(())
}

fn print_report(r: &SimReport, base: &SimReport) {
    println!("workload : {}", r.workload);
    println!("method   : {}", r.method);
    println!();
    println!("cycles            : {}", r.cycles);
    println!("instructions      : {}", r.instrs);
    println!(
        "IPC               : {:.3} (baseline {:.3})",
        r.ipc(),
        base.ipc()
    );
    println!("speedup           : {:.3}x", r.speedup_over(base));
    println!(
        "L1i MPKI          : {:.2} (baseline {:.2})",
        r.l1i_mpki(),
        base.l1i_mpki()
    );
    println!(
        "miss coverage     : {:.1}%",
        r.miss_coverage_over(base) * 100.0
    );
    println!("seq/disc misses   : {} / {}", r.seq_misses, r.disc_misses);
    println!("FSCR              : {:.1}%", r.fscr_over(base) * 100.0);
    println!("CMAL              : {:.1}%", r.cmal() * 100.0);
    println!("cache lookups     : {:.2}x baseline", r.lookups_over(base));
    println!(
        "external bandwidth: {:.2}x baseline",
        r.bandwidth_over(base)
    );
    println!("branch accuracy   : {:.2}%", r.branch_accuracy * 100.0);
    println!(
        "stalls (cycles)   : l1i {} / btb {} / redirect {} / empty-FTQ {}",
        r.stall_l1i, r.stall_btb, r.stall_redirect, r.stall_empty_ftq
    );
    println!(
        "metadata storage  : {:.1} KB",
        r.storage_bits as f64 / 8.0 / 1024.0
    );
    if let Some(s) = &r.shotgun {
        println!(
            "footprint misses  : {:.1}% of dynamic unconditional branches",
            s.footprint_miss_ratio() * 100.0
        );
    }
}

fn report_json(r: &SimReport, base: Option<&SimReport>) -> JsonObject {
    let mut o = JsonObject::new();
    o.string("workload", &r.workload)
        .string("method", &r.method)
        .int("cycles", r.cycles)
        .int("instructions", r.instrs)
        .float("ipc", r.ipc())
        .float("l1i_mpki", r.l1i_mpki())
        .int("seq_misses", r.seq_misses)
        .int("disc_misses", r.disc_misses)
        .int("uncovered_misses", r.uncovered_misses)
        .int("late_prefetches", r.late_prefetches)
        .int("dropped_prefetches", r.dropped_prefetches)
        .int("buffer_hits", r.buffer_hits)
        .float("cmal", r.cmal())
        .int("stall_l1i", r.stall_l1i)
        .int("stall_btb", r.stall_btb)
        .int("stall_redirect", r.stall_redirect)
        .int("stall_empty_ftq", r.stall_empty_ftq)
        .int("external_requests", r.external_requests)
        .int("cache_lookups", r.cache_lookups)
        .float("branch_accuracy", r.branch_accuracy)
        .int("storage_bits", r.storage_bits);
    if let Some(b) = base {
        o.float("speedup", r.speedup_over(b))
            .float("miss_coverage", r.miss_coverage_over(b))
            .float("fscr", r.fscr_over(b))
            .float("bandwidth_rel", r.bandwidth_over(b))
            .float("lookups_rel", r.lookups_over(b));
    }
    o
}

/// `dcfb record`
pub fn record(cli: &Cli) -> Result<(), DcfbError> {
    let resolved = cli.require_source()?.resolve(cli.isa)?;
    let Some(out) = &cli.out else {
        return Err(DcfbError::Usage("--out is required for record".into()));
    };
    let mut stream = resolved.stream(cli.seed);
    // Skip the warmup region so the recorded window matches `run`.
    for _ in 0..cli.warmup {
        stream.next_instr();
    }
    let file = std::fs::File::create(out).map_err(|e| DcfbError::io(out, &e))?;
    let written = match cli.format.as_str() {
        "text" => dcfb_trace::write_text(&mut stream, file, cli.measure),
        _ => dcfb_trace::write_binary_v2(
            &mut stream,
            file,
            cli.measure,
            Some(cli.isa),
            dcfb_trace::file::DEFAULT_CHUNK_RECORDS,
        ),
    }
    .map_err(|e| DcfbError::io(out, &e))?;
    println!(
        "wrote {written} instructions of {} to {out} ({})",
        resolved.name(),
        cli.format
    );
    Ok(())
}

/// `dcfb import` — convert a ChampSim-style 64-byte-record trace into
/// the native trace v2 format, ready for `--workload trace:PATH` or
/// `dcfb replay`. `--lenient` salvages a whole-record prefix from
/// truncated input; the default strict mode rejects it with a typed
/// error at the damaged byte offset.
pub fn import(cli: &Cli) -> Result<(), DcfbError> {
    let Some(path) = &cli.trace else {
        return Err(DcfbError::Usage(
            "--trace INPUT is required for import (a ChampSim-style 64-byte-record file)".into(),
        ));
    };
    let Some(out) = &cli.out else {
        return Err(DcfbError::Usage("--out is required for import".into()));
    };
    let data = std::fs::read(path).map_err(|e| DcfbError::io(path, &e))?;
    let mode = if cli.lenient {
        ReadMode::Lenient
    } else {
        ReadMode::Strict
    };
    let (trace, report) = dcfb_trace::import_champsim(&data, mode)?;
    if let Some(reason) = &report.salvage {
        eprintln!(
            "warning: {path}: input damaged ({reason}); salvaged {} record(s)",
            report.records
        );
    }
    if trace.is_empty() {
        return Err(DcfbError::Config(format!(
            "{path}: no importable records; nothing to write"
        )));
    }
    let file = std::fs::File::create(out).map_err(|e| DcfbError::io(out, &e))?;
    let written = dcfb_trace::write_binary_v2(
        &mut trace.replay(),
        file,
        trace.len() as u64,
        None,
        dcfb_trace::file::DEFAULT_CHUNK_RECORDS,
    )
    .map_err(|e| DcfbError::io(out, &e))?;
    println!(
        "imported {} record(s) ({} branches, {} discontinuities) -> {written} instructions in {out}",
        report.records, report.branches, report.discontinuities
    );
    println!("replay with: dcfb run --workload \"trace:{out}\" --method SN4L+Dis+BTB");
    Ok(())
}

/// `dcfb replay`
pub fn replay(cli: &Cli) -> Result<(), DcfbError> {
    let Some(path) = &cli.trace else {
        return Err(DcfbError::Usage("--trace is required for replay".into()));
    };
    let mode = if cli.lenient {
        ReadMode::Lenient
    } else {
        ReadMode::Strict
    };
    let (source, read) = load_trace(path, mode, path.as_str())?;
    if let Some(read) = &read {
        if let Some(reason) = &read.salvage {
            eprintln!(
                "warning: {path}: trace damaged ({reason}); salvaged {} of {} records",
                read.records, read.declared_records,
            );
        }
    }
    let total = source.trace_len().unwrap_or_default();
    let (warmup, measure) = source.window(cli.warmup, cli.measure);
    let base = simulate(&source, config_for(cli, "Baseline")?, cli)?;
    let r = simulate(&source, config_for(cli, &cli.method)?, cli)?;
    if cli.json {
        // Reuse the same JSON shape as `run`.
        println!("{}", report_json(&r, Some(&base)).render());
        return Ok(());
    }
    println!(
        "replayed {} instructions ({warmup} warmup + {measure} measured)\n",
        total
    );
    print_report(&r, &base);
    Ok(())
}

/// `dcfb conformance`
pub fn conformance(cli: &Cli) -> Result<(), DcfbError> {
    if cli.ops == 0 {
        // A zero budget would "pass" every lockstep check by running
        // nothing — reject it as a configuration error, not usage.
        return Err(DcfbError::Config(
            "conformance op budget must be positive (--ops 0 would check nothing)".into(),
        ));
    }
    let report = dcfb_conformance::run_full_suite(cli.seed, cli.ops);
    print!("{}", report.render());
    if report.passed() {
        Ok(())
    } else {
        let first = report
            .failures()
            .first()
            .map(|c| c.name.clone())
            .unwrap_or_default();
        Err(DcfbError::Run {
            workload: "fuzzed op streams".to_owned(),
            method: "conformance".to_owned(),
            message: format!(
                "{} of {} checks failed (first: {first}); \
                 reproduce with --seed {} --ops {}",
                report.failures().len(),
                report.checks.len(),
                report.seed,
                report.ops_per_structure
            ),
        })
    }
}
