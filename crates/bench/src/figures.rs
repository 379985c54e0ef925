//! One generator per table/figure in the paper's evaluation.
//!
//! Each function runs the required simulations (at the harness scale)
//! and returns a [`Table`] whose *shape* should match the paper: who
//! wins, by roughly what factor, where the crossovers fall. Absolute
//! numbers differ — the substrate is a synthetic-trace simulator, not
//! the authors' Flexus testbed (see DESIGN.md).

use crate::runs::{
    baseline, image_for, measure_instrs, method_config, run, run_all, run_all_with_baseline,
    scaled, workloads, TRACE_SEED,
};
use crate::sweep::parallel_map;
use crate::table::Table;
use dcfb_prefetch::{Sn4lDisConfig, TagPolicy};
use dcfb_sim::analysis;
use dcfb_sim::{PrefetcherKind, SimConfig};
use dcfb_trace::IsaMode;
use dcfb_workloads::Walker;

/// Fig. 1 — Shotgun U-BTB footprint miss ratio per workload (paper:
/// 4–31 %, worst on OLTP DB A).
pub fn fig01_footprint_miss() -> Table {
    let mut t = Table::new(
        "Fig. 1",
        "Footprint miss ratio in Shotgun's U-BTB",
        &["Workload", "Footprint miss ratio"],
    );
    for (w, rep) in run_all(&method_config("Shotgun")) {
        // The Shotgun runner always attaches its stats; render a
        // placeholder rather than aborting the sweep if it ever stops.
        let cell = match rep.shotgun {
            Some(sh) => Table::pct(sh.footprint_miss_ratio()),
            None => "n/a".to_owned(),
        };
        t.row(vec![w.name.to_owned(), cell]);
    }
    t.note("Paper: 4-31%, highest on OLTP (DB A).");
    t
}

/// Table I — fraction of cycles stalled on an empty FTQ in Shotgun
/// (paper: 1.6–18.9 %).
pub fn tab1_empty_ftq() -> Table {
    let mut t = Table::new(
        "Table I",
        "Empty-FTQ stall cycles in Shotgun",
        &["Workload", "Fraction of cycles"],
    );
    for (w, rep) in run_all(&method_config("Shotgun")) {
        t.row(vec![
            w.name.to_owned(),
            Table::pct(rep.empty_ftq_fraction()),
        ]);
    }
    t.note("Paper: 1.64% (OLTP DB B) to 18.87% (OLTP DB A).");
    t
}

/// Fig. 2 — fraction of L1i misses that are sequential (paper:
/// 65–80 %).
pub fn fig02_seq_fraction() -> Table {
    let mut t = Table::new(
        "Fig. 2",
        "Fraction of sequential cache misses (no prefetcher)",
        &["Workload", "Sequential fraction"],
    );
    for (w, rep) in parallel_map(workloads(), |w| (w.clone(), baseline(w))) {
        t.row(vec![w.name.to_owned(), Table::pct(rep.seq_miss_fraction())]);
    }
    t.note("Paper: 65-80% of L1i misses are sequential.");
    t
}

/// Fig. 3 — NL *sequential* miss coverage (paper: ≈ 63 % average).
pub fn fig03_nl_coverage() -> Table {
    let mut t = Table::new(
        "Fig. 3",
        "NL sequential miss coverage",
        &["Workload", "Sequential-miss coverage"],
    );
    let mut sum = 0.0;
    let mut n = 0.0f64;
    for (w, rep, base) in run_all_with_baseline(&method_config("NL")) {
        let base_rate = base.seq_misses as f64 / base.instrs.max(1) as f64;
        let own_rate = rep.seq_misses as f64 / rep.instrs.max(1) as f64;
        let coverage = if base_rate > 0.0 {
            1.0 - own_rate / base_rate
        } else {
            0.0
        };
        sum += coverage;
        n += 1.0;
        t.row(vec![w.name.to_owned(), Table::pct(coverage)]);
    }
    t.row(vec!["Average".to_owned(), Table::pct(sum / n.max(1.0))]);
    t.note("Paper: 63% average — NL's timeliness leaves ~37% of sequential misses.");
    t
}

/// Fig. 4 — CMAL for NL / N2L / N4L / N8L (paper: 65 / 80 / 88 / 85 %).
pub fn fig04_cmal_nxl() -> Table {
    let mut t = Table::new(
        "Fig. 4",
        "Covered Memory Access Latency of sequential prefetchers",
        &["Prefetcher", "CMAL (avg)"],
    );
    for method in ["NL", "N2L", "N4L", "N8L"] {
        let mut cfgd = method_config(method);
        cfgd.use_prefetch_buffer = true;
        let mut covered = 0.0;
        let mut total = 0.0;
        for (_, rep) in run_all(&cfgd) {
            covered += rep.cmal_covered;
            total += rep.cmal_total;
        }
        let cmal = if total > 0.0 { covered / total } else { 0.0 };
        t.row(vec![method.to_owned(), Table::pct(cmal)]);
    }
    t.note(
        "Paper: NL 65%, N2L 80%, N4L 88%, N8L 85% — N8L loses to N4L from self-inflicted traffic.",
    );
    t
}

/// Fig. 5 — side effects of useless prefetches: average LLC latency and
/// L1i external bandwidth vs. baseline (paper: N8L +28 % latency, 7.2×
/// bandwidth).
pub fn fig05_side_effects() -> Table {
    let mut t = Table::new(
        "Fig. 5",
        "LLC access latency and L1i external bandwidth (normalized)",
        &["Prefetcher", "LLC latency", "External bandwidth"],
    );
    for method in ["NL", "N2L", "N4L", "N8L"] {
        let mut cfgd = method_config(method);
        cfgd.use_prefetch_buffer = true;
        let mut lat = 0.0;
        let mut bw = 0.0;
        let mut n = 0.0;
        for (_, rep, base) in run_all_with_baseline(&cfgd) {
            lat += rep.llc_latency_over(&base);
            bw += rep.bandwidth_over(&base);
            n += 1.0;
        }
        t.row(vec![method.to_owned(), Table::x(lat / n), Table::x(bw / n)]);
    }
    t.note("Paper: N8L inflates LLC latency by 28% at 7.2x external bandwidth.");
    t
}

/// Fig. 6 — predictability of the 4-subsequent-block access pattern
/// (paper: ≈ 92 %).
pub fn fig06_pattern_pred() -> Table {
    let mut t = Table::new(
        "Fig. 6",
        "Predictability of the four-subsequent-block access pattern",
        &["Workload", "Prediction accuracy"],
    );
    let limit = measure_instrs();
    let rows = parallel_map(workloads(), |w| {
        let image = image_for(w, IsaMode::Fixed4);
        let mut walker = Walker::new(image, TRACE_SEED);
        let p =
            analysis::pattern_predictability(&mut walker, dcfb_cache::CacheConfig::l1i(), limit);
        (w.name.to_owned(), p)
    });
    for (name, p) in rows {
        t.row(vec![name, Table::pct(p)]);
    }
    t.note("Paper: 92% on average.");
    t
}

/// Fig. 7 — stability of the branch causing a block's discontinuity
/// (paper: 78–83 %).
pub fn fig07_branch_stability() -> Table {
    let mut t = Table::new(
        "Fig. 7",
        "Predictability of the discontinuity-causing branch",
        &["Workload", "Same-branch fraction"],
    );
    let limit = measure_instrs();
    let rows = parallel_map(workloads(), |w| {
        let image = image_for(w, IsaMode::Fixed4);
        let mut walker = Walker::new(image, TRACE_SEED);
        (
            w.name.to_owned(),
            analysis::discontinuity_stability(&mut walker, limit),
        )
    });
    for (name, s) in rows {
        t.row(vec![name, Table::pct(s)]);
    }
    t.note("Paper: 78% (Web Apache) to 83% (OLTP DB A), 80% average.");
    t
}

/// Fig. 8 — uncovered branches vs. branches per branch footprint
/// (paper: 4 offsets cover almost all branches).
pub fn fig08_bf_branches() -> Table {
    let mut t = Table::new(
        "Fig. 8",
        "Uncovered branches vs. branch-footprint capacity",
        &["Branches per BF", "Uncovered branches (avg)"],
    );
    for per_bf in [1usize, 2, 3, 4, 6, 8] {
        let covs = parallel_map(workloads(), |w| {
            analysis::branch_footprint_coverage(&image_for(w, IsaMode::Fixed4), per_bf)
        });
        let n = covs.len().max(1) as f64;
        t.row(vec![
            per_bf.to_string(),
            Table::pct(covs.iter().sum::<f64>() / n),
        ]);
    }
    t.note("Paper: storing 4 branch offsets per 64 B block covers almost all branches.");
    t
}

/// Fig. 9 — uncovered branch footprints vs. BF slots per LLC set
/// (paper: 2 → ~2 %, 3 → 0.4 %, 4 → 0.2 %).
pub fn fig09_bf_per_set() -> Table {
    let mut t = Table::new(
        "Fig. 9",
        "Uncovered branch footprints vs. BF slots per LLC set",
        &["BFs per set", "Uncovered (avg)"],
    );
    let limit = measure_instrs();
    // One core-visible LLC slice: 2 MiB / 64 B / 16 ways = 2048 sets.
    for slots in [1usize, 2, 3, 4] {
        let covs = parallel_map(workloads(), |w| {
            let image = image_for(w, IsaMode::Fixed4);
            let mut walker = Walker::new(image, TRACE_SEED);
            analysis::bf_per_set_coverage(&mut walker, 2048, slots, limit)
        });
        let n = covs.len().max(1) as f64;
        t.row(vec![
            slots.to_string(),
            Table::pct(covs.iter().sum::<f64>() / n),
        ]);
    }
    t.note("Paper: 2 slots leave ~2%, 3 leave 0.4%, 4 leave 0.2% of BFs uncovered.");
    t
}

/// Fig. 11 — miss coverage vs. SeqTable and DisTable size (paper: 16 K
/// SeqTable reaches 96 % of unlimited; 4 K DisTable reaches 97 %).
pub fn fig11_table_sizes() -> Table {
    let mut t = Table::new(
        "Fig. 11",
        "Miss coverage vs. metadata table size",
        &["Configuration", "Coverage (avg)"],
    );
    let avg_coverage = |kind: PrefetcherKind| {
        let mut cfg = scaled(SimConfig::default());
        cfg.prefetcher = kind;
        let mut sum = 0.0;
        let mut n = 0.0;
        for (_, rep, base) in run_all_with_baseline(&cfg) {
            sum += rep.miss_coverage_over(&base);
            n += 1.0;
        }
        sum / n
    };
    for entries in [2048usize, 4096, 16 * 1024, 64 * 1024] {
        let cov = avg_coverage(PrefetcherKind::Sn4l {
            seq_entries: entries,
        });
        t.row(vec![
            format!("SN4L, {}K SeqTable", entries / 1024),
            Table::pct(cov),
        ]);
    }
    let unlimited = avg_coverage(PrefetcherKind::Sn4l {
        seq_entries: 1 << 24,
    });
    t.row(vec!["SN4L, unlimited".to_owned(), Table::pct(unlimited)]);
    for entries in [1024usize, 4096, 16 * 1024] {
        let mut c = Sn4lDisConfig::without_btb();
        c.dis_entries = entries;
        let cov = avg_coverage(PrefetcherKind::Sn4lDis(c));
        t.row(vec![
            format!("SN4L+Dis, {}K DisTable", entries / 1024),
            Table::pct(cov),
        ]);
    }
    let mut c = Sn4lDisConfig::without_btb();
    c.dis_entries = 1 << 22;
    c.dis_tag = TagPolicy::Full;
    let unl = avg_coverage(PrefetcherKind::Sn4lDis(c));
    t.row(vec!["SN4L+Dis, unlimited".to_owned(), Table::pct(unl)]);
    t.note(
        "Paper: 16K-entry SeqTable gives 96% of unlimited coverage; 4K-entry DisTable gives 97%.",
    );
    t
}

/// Fig. 12 — DisTable overprediction under different tagging policies
/// (paper: tagless ≫ 4-bit partial ≈ full).
pub fn fig12_tagging() -> Table {
    let mut t = Table::new(
        "Fig. 12",
        "Overprediction of DisTable tagging policies",
        &["Policy", "Useless prefetches / 1K instr (avg)"],
    );
    for (name, tag) in [
        ("Tagless", TagPolicy::Tagless),
        ("4-bit partial", TagPolicy::Partial(4)),
        ("Full", TagPolicy::Full),
    ] {
        let mut cfg = scaled(SimConfig::default());
        cfg.prefetcher = PrefetcherKind::Dis {
            dis_entries: 4 * 1024,
            tag,
        };
        let mut sum = 0.0;
        let mut n = 0.0;
        for (_, rep) in run_all(&cfg) {
            sum += rep.l1i.useless_prefetch_evictions as f64 * 1000.0 / rep.instrs.max(1) as f64;
            n += 1.0;
        }
        t.row(vec![name.to_owned(), format!("{:.2}", sum / n)]);
    }
    t.note("Paper: the tagless table overpredicts heavily; a 4-bit partial tag nearly matches a full tag.");
    t
}

/// Fig. 13 — timeliness (CMAL) of N4L, SN4L, Dis, SN4L+Dis+BTB (paper:
/// 88 / 93 / 89 / 91 %).
pub fn fig13_timeliness() -> Table {
    let mut t = Table::new(
        "Fig. 13",
        "Timeliness (CMAL) of the proposed prefetchers",
        &["Prefetcher", "CMAL (avg)"],
    );
    for method in ["N4L", "SN4L", "Dis", "SN4L+Dis+BTB"] {
        let cfg = method_config(method);
        let mut covered = 0.0;
        let mut total = 0.0;
        for (_, rep) in run_all(&cfg) {
            covered += rep.cmal_covered;
            total += rep.cmal_total;
        }
        let cmal = if total > 0.0 { covered / total } else { 0.0 };
        t.row(vec![method.to_owned(), Table::pct(cmal)]);
    }
    t.note("Paper: N4L 88%, SN4L 93%, Dis 89%, SN4L+Dis+BTB 91%.");
    t
}

/// Fig. 14 — cache lookups normalized to no-prefetcher (RLU
/// effectiveness; paper: Confluence lowest, ours ≈ Shotgun).
pub fn fig14_lookups() -> Table {
    let mut t = Table::new(
        "Fig. 14",
        "L1i lookups, normalized to a machine with no prefetcher",
        &["Method", "Lookups (avg)"],
    );
    for method in ["N4L", "SN4L+Dis+BTB", "Shotgun", "Confluence"] {
        let mut sum = 0.0;
        let mut n = 0.0;
        for (_, rep, base) in run_all_with_baseline(&method_config(method)) {
            sum += rep.lookups_over(&base);
            n += 1.0;
        }
        t.row(vec![method.to_owned(), Table::x(sum / n)]);
    }
    // RLU ablation: the combined engine without an effective RLU
    // (capacity 1) versus the paper's 8-entry filter.
    for (label, rlu) in [
        ("SN4L+Dis+BTB (RLU=1)", 1usize),
        ("SN4L+Dis+BTB (RLU=8)", 8),
    ] {
        let mut c = Sn4lDisConfig::default();
        c.rlu_entries = rlu;
        let mut cfg = scaled(SimConfig::default());
        cfg.prefetcher = PrefetcherKind::Sn4lDis(c);
        let mut sum = 0.0;
        let mut n = 0.0;
        for (_, rep, base) in run_all_with_baseline(&cfg) {
            sum += rep.lookups_over(&base);
            n += 1.0;
        }
        t.row(vec![label.to_owned(), Table::x(sum / n)]);
    }
    t.note("Paper: an 8-entry RLU suffices; Confluence needs the fewest lookups; ours ≈ Shotgun.");
    t
}

/// Fig. 15 — Frontend Stall Cycle Reduction (paper: ours 61 %, Shotgun
/// 35 %, Confluence 32 %).
pub fn fig15_fscr() -> Table {
    let mut t = Table::new(
        "Fig. 15",
        "Frontend stall-cycle reduction (FSCR)",
        &["Workload", "SN4L+Dis+BTB", "Shotgun", "Confluence"],
    );
    let methods = ["SN4L+Dis+BTB", "Shotgun", "Confluence"];
    let mut per_method: Vec<Vec<f64>> = vec![Vec::new(); methods.len()];
    // One parallel item per workload row (each runs its baseline plus
    // all three methods); rows land in workload order.
    let rows = parallel_map(workloads(), |w| {
        let base = baseline(w);
        let fscrs: Vec<f64> = methods
            .iter()
            .map(|m| run(w, method_config(m)).fscr_over(&base))
            .collect();
        (w.name.to_owned(), fscrs)
    });
    for (name, fscrs) in rows {
        let mut cells = vec![name];
        for (k, fscr) in fscrs.into_iter().enumerate() {
            per_method[k].push(fscr);
            cells.push(Table::pct(fscr));
        }
        t.row(cells);
    }
    let mut avg = vec!["Average".to_owned()];
    for v in &per_method {
        avg.push(Table::pct(v.iter().sum::<f64>() / v.len().max(1) as f64));
    }
    t.row(avg);
    t.note("Paper: SN4L+Dis+BTB 61%, Shotgun 35%, Confluence 32% on average.");
    t
}

/// Fig. 16 — speedup over the no-prefetcher baseline (paper: ours 19 %
/// avg, 7–50 %; +5 % over Shotgun, +16 % on OLTP DB A).
pub fn fig16_speedup() -> Table {
    let mut t = Table::new(
        "Fig. 16",
        "Speedup over a baseline with no instruction/BTB prefetcher",
        &["Workload", "SN4L+Dis+BTB", "Shotgun", "Confluence"],
    );
    let methods = ["SN4L+Dis+BTB", "Shotgun", "Confluence"];
    let mut per_method: Vec<Vec<f64>> = vec![Vec::new(); methods.len()];
    let rows = parallel_map(workloads(), |w| {
        let base = baseline(w);
        let speedups: Vec<f64> = methods
            .iter()
            .map(|m| run(w, method_config(m)).speedup_over(&base))
            .collect();
        (w.name.to_owned(), speedups)
    });
    for (name, speedups) in rows {
        let mut cells = vec![name];
        for (k, s) in speedups.into_iter().enumerate() {
            per_method[k].push(s);
            cells.push(Table::x(s));
        }
        t.row(cells);
    }
    let mut avg = vec!["Geomean".to_owned()];
    for v in &per_method {
        avg.push(Table::x(dcfb_sim::experiment::geomean(v.iter().copied())));
    }
    t.row(avg);
    t.note("Paper: SN4L+Dis+BTB +19% average (range +7% Web Frontend to +50% Media Streaming), 5% over Shotgun, 16% over Shotgun on OLTP (DB A).");
    t
}

/// Fig. 17 — performance breakdown: N4L, SN4L, SN4L+Dis, SN4L+Dis+BTB,
/// Perfect L1i, Perfect L1i + BTB∞ (paper: 13/15/19/—/29 %).
pub fn fig17_breakdown() -> Table {
    let mut t = Table::new(
        "Fig. 17",
        "Performance breakdown of SN4L+Dis+BTB components",
        &["Configuration", "Speedup (geomean)"],
    );
    let speedups_for = |cfg_for: &dyn Fn() -> SimConfig| {
        let cfg = cfg_for();
        let v: Vec<f64> = run_all_with_baseline(&cfg)
            .into_iter()
            .map(|(_, rep, base)| rep.speedup_over(&base))
            .collect();
        dcfb_sim::experiment::geomean(v)
    };
    for m in ["N4L", "SN4L", "SN4L+Dis", "SN4L+Dis+BTB"] {
        let s = speedups_for(&|| method_config(m));
        t.row(vec![m.to_owned(), Table::x(s)]);
    }
    let s = speedups_for(&|| {
        let mut cfg = scaled(SimConfig::default());
        cfg.perfect_l1i = true;
        cfg
    });
    t.row(vec!["Perfect L1i".to_owned(), Table::x(s)]);
    let s = speedups_for(&|| {
        let mut cfg = scaled(SimConfig::default());
        cfg.perfect_l1i = true;
        cfg.perfect_btb = true;
        cfg
    });
    t.row(vec!["Perfect L1i + BTB inf".to_owned(), Table::x(s)]);
    t.note("Paper: SN4L +13%, SN4L+Dis +15%, SN4L+Dis+BTB +19% (close to Perfect L1i), Perfect L1i+BTBinf +29%.");
    t
}

/// Fig. 18 — speedup of SN4L+Dis+BTB over Shotgun as the BTB shrinks
/// (paper: the gap widens as BTB size decreases).
pub fn fig18_btb_sweep() -> Table {
    let mut t = Table::new(
        "Fig. 18",
        "Speedup of SN4L+Dis+BTB over Shotgun vs. BTB size",
        &["BTB scale", "Ours / Shotgun (geomean)"],
    );
    for scale in [1.0f64, 0.5, 0.25, 0.125] {
        let ratios = parallel_map(workloads(), |w| {
            let mut ours = method_config("SN4L+Dis+BTB");
            ours.scale_btb(scale);
            let mut shot = method_config("Shotgun");
            shot.scale_btb(scale);
            let ours_rep = run(w, ours);
            let shot_rep = run(w, shot);
            ours_rep.ipc() / shot_rep.ipc().max(1e-9)
        });
        t.row(vec![
            format!("{:.3}x", scale),
            Table::x(dcfb_sim::experiment::geomean(ratios)),
        ]);
    }
    t.note("Paper: as the BTB shrinks (larger effective footprints), the gap over Shotgun widens.");
    t
}

/// Table II — storage overhead and qualitative comparison.
pub fn tab2_storage() -> Table {
    let mut t = Table::new(
        "Table II",
        "SN4L+Dis+BTB and prior work",
        &["Property", "SN4L+Dis+BTB", "Shotgun", "Confluence"],
    );
    use dcfb_prefetch::{Confluence, InstrPrefetcher, Sn4lDisBtb};
    let ours = Sn4lDisBtb::paper_sized();
    let shotgun = dcfb_prefetch::Shotgun::paper_sized(0);
    let confl = Confluence::paper_sized();
    let kb = |bits: u64| format!("{:.1} KB", bits as f64 / 8.0 / 1024.0);
    t.row(vec![
        "Storage overhead".to_owned(),
        kb(ours.storage_bits()),
        kb(shotgun.storage_bits()),
        kb(confl.storage_bits()),
    ]);
    t.row(vec![
        "BTB modification".to_owned(),
        "No".to_owned(),
        "Yes (U/C/RIB split)".to_owned(),
        "Yes (AirBTB)".to_owned(),
    ]);
    t.row(vec![
        "Instruction prefetch buffer".to_owned(),
        "No".to_owned(),
        "Yes (64-entry)".to_owned(),
        "No".to_owned(),
    ]);
    t.row(vec![
        "Search complexity".to_owned(),
        "Low (2 direct-mapped tables)".to_owned(),
        "High (3 BTBs + 2 CAMs)".to_owned(),
        "High (2-step LLC chase)".to_owned(),
    ]);
    t.row(vec![
        "Modularity".to_owned(),
        "Yes".to_owned(),
        "No".to_owned(),
        "No".to_owned(),
    ]);
    t.row(vec![
        "Handles very large footprints".to_owned(),
        "Yes".to_owned(),
        "No (U-BTB bound)".to_owned(),
        "Yes".to_owned(),
    ]);
    t.note("Paper: 7.6 KB (ours) vs 6 KB (Shotgun) vs >200 KB virtualized (Confluence).");
    t
}

/// §VII-J — DV-LLC impact: instruction/data hit ratios with
/// virtualization on vs. off (paper: data hit ratio drops ≤ 0.1 %).
pub fn dvllc_impact() -> Table {
    let mut t = Table::new(
        "SVII-J",
        "DV-LLC impact on LLC hit ratios (variable-length ISA)",
        &[
            "Workload",
            "Instr hit (DV)",
            "Instr hit (off)",
            "Data-side capacity cost",
        ],
    );
    let subset: Vec<_> = workloads().into_iter().take(3).collect();
    let rows = parallel_map(subset, |w| {
        let run_dv = |dvllc: bool| {
            let mut cfg = method_config("SN4L+Dis+BTB");
            cfg.isa = IsaMode::Variable;
            cfg.uncore.dvllc = dvllc;
            run(w, cfg)
        };
        let on = run_dv(true);
        let off = run_dv(false);
        let hit_on = on.uncore.llc_hits as f64 / on.uncore.requests.max(1) as f64;
        let hit_off = off.uncore.llc_hits as f64 / off.uncore.requests.max(1) as f64;
        (w.name.to_owned(), hit_on, hit_off)
    });
    for (name, hit_on, hit_off) in rows {
        t.row(vec![
            name,
            Table::pct(hit_on),
            Table::pct(hit_off),
            Table::pct((hit_off - hit_on).max(0.0)),
        ]);
    }
    t.note("Paper: instruction hit ratio unchanged; data hit ratio drops at most 0.1%.");
    t
}

/// Every generator, in paper order, for `all_experiments`.
pub fn all() -> Vec<(&'static str, fn() -> Table)> {
    vec![
        ("fig01", fig01_footprint_miss as fn() -> Table),
        ("tab1", tab1_empty_ftq),
        ("fig02", fig02_seq_fraction),
        ("fig03", fig03_nl_coverage),
        ("fig04", fig04_cmal_nxl),
        ("fig05", fig05_side_effects),
        ("fig06", fig06_pattern_pred),
        ("fig07", fig07_branch_stability),
        ("fig08", fig08_bf_branches),
        ("fig09", fig09_bf_per_set),
        ("fig11", fig11_table_sizes),
        ("fig12", fig12_tagging),
        ("fig13", fig13_timeliness),
        ("fig14", fig14_lookups),
        ("fig15", fig15_fscr),
        ("fig16", fig16_speedup),
        ("fig17", fig17_breakdown),
        ("fig18", fig18_btb_sweep),
        ("tab2", tab2_storage),
        ("dvllc", dvllc_impact),
    ]
}
