//! One [`Figure`] per table and figure of the paper's evaluation.
//!
//! A simulated figure declares the runs it reads ([`Figure::runs`]) and
//! renders its [`Table`] from their reports ([`Figure::render`]); the
//! batch runs every distinct declared run once, so figures that read
//! the same run share it. The analysis figures (Figs. 6–9) and the
//! static Table II declare no run and compute their table directly.
//!
//! Each table's *shape* should match the paper: who wins, by roughly
//! what factor, where the crossovers fall. Absolute numbers differ —
//! the substrate is a synthetic-trace simulator, not the authors'
//! Flexus testbed (see DESIGN.md).

use crate::runs::{image_for, Reports, RunSpec, Scale, TRACE_SEED};
use crate::sweep::parallel_map_jobs;
use crate::table::Table;
use dcfb_prefetch::{Sn4lDisConfig, TagPolicy};
use dcfb_sim::analysis;
use dcfb_sim::{geomean, PrefetcherKind, SimConfig, SimReport};
use dcfb_trace::IsaMode;
use dcfb_workloads::{Walker, Workload};

/// One table or figure of the evaluation.
#[derive(Clone, Copy)]
pub struct Figure {
    /// The id `all_experiments` selects it by (`fig16`, `tab1`, ...).
    pub id: &'static str,
    /// The runs it reads at a scale; none for a figure that runs no
    /// simulation.
    pub runs: fn(&Scale) -> Vec<RunSpec>,
    /// Its table, from the reports of its declared runs (or computed
    /// directly by a figure that declares none). Rendering runs no
    /// simulation and reads no environment.
    pub render: fn(&Scale, &Reports) -> Table,
}

/// Every figure of the default batch, in paper order.
#[rustfmt::skip]
pub fn all() -> Vec<Figure> {
    let fig = |id, runs, render| Figure { id, runs, render };
    vec![
        fig("fig01", |s| on_each(s, [s.method("Shotgun")]), fig01_footprint_miss),
        fig("tab1", |s| on_each(s, [s.method("Shotgun")]), tab1_empty_ftq),
        fig("fig02", |s| on_each(s, [s.method("Baseline")]), fig02_seq_fraction),
        fig("fig03", |s| with_baseline(s, methods(s, &["NL"])), fig03_nl_coverage),
        fig("fig04", |s| on_each(s, configs(nxl_buffered(s))), fig04_cmal_nxl),
        fig("fig05", |s| with_baseline(s, nxl_buffered(s)), fig05_side_effects),
        fig("fig06", |_| Vec::new(), fig06_pattern_pred),
        fig("fig07", |_| Vec::new(), fig07_branch_stability),
        fig("fig08", |_| Vec::new(), fig08_bf_branches),
        fig("fig09", |_| Vec::new(), fig09_bf_per_set),
        fig("fig11", |s| with_baseline(s, fig11_rows(s)), fig11_table_sizes),
        fig("fig12", |s| on_each(s, configs(fig12_rows(s))), fig12_tagging),
        fig("fig13", |s| on_each(s, configs(methods(s, &FIG13))), fig13_timeliness),
        fig("fig14", |s| with_baseline(s, fig14_rows(s)), fig14_lookups),
        fig("fig15", |s| with_baseline(s, methods(s, &HEADLINE)), fig15_fscr),
        fig("fig16", |s| with_baseline(s, methods(s, &HEADLINE)), fig16_speedup),
        fig("fig17", |s| with_baseline(s, fig17_rows(s)), fig17_breakdown),
        fig("fig18", |s| on_each(s, FIG18_BTB.map(|b| fig18_pair(s, b)).concat()), fig18_btb_sweep),
        fig("tab2", |_| Vec::new(), tab2_storage),
        fig("dvllc", dvllc_runs, dvllc_impact),
    ]
}

/// The figures `ids` name, in paper order; every figure of [`all`]
/// when `ids` is empty. The proactive-engine ablation is selected only
/// by its id, `ablation`. An unknown id is an error listing the valid
/// ones.
pub fn select(ids: &[String]) -> Result<Vec<Figure>, String> {
    if ids.is_empty() {
        return Ok(all());
    }
    let mut catalog = all();
    catalog.push(Figure {
        id: "ablation",
        runs: |s| with_baseline(s, ablation_rows(s)),
        render: ablation_proactive,
    });
    if let Some(bad) = ids.iter().find(|id| !catalog.iter().any(|f| f.id == *id)) {
        let valid: Vec<_> = catalog.iter().map(|f| f.id).collect();
        return Err(format!(
            "unknown figure id {bad:?}; valid ids: {}",
            valid.join(", ")
        ));
    }
    catalog.retain(|f| ids.iter().any(|id| id == f.id));
    Ok(catalog)
}

/// A table row's label and configuration.
type Row = (String, SimConfig);

fn configs(rows: Vec<Row>) -> impl Iterator<Item = SimConfig> {
    rows.into_iter().map(|(_, cfg)| cfg)
}

/// The named methods at the batch scale, labelled by name.
fn methods(s: &Scale, names: &[&str]) -> Vec<Row> {
    names.iter().map(|&m| (m.to_owned(), s.method(m))).collect()
}

/// Each of `cfgs` on every workload of the batch.
fn on_each(s: &Scale, cfgs: impl IntoIterator<Item = SimConfig>) -> Vec<RunSpec> {
    let workloads = s.workload_list();
    cfgs.into_iter()
        .flat_map(|cfg| workloads.iter().map(move |w| RunSpec::new(w, cfg.clone())))
        .collect()
}

/// The no-prefetcher baseline and each row's configuration on every
/// workload of the batch.
fn with_baseline(s: &Scale, rows: Vec<Row>) -> Vec<RunSpec> {
    let base = s.method("Baseline");
    on_each(s, std::iter::once(base).chain(configs(rows)))
}

/// `cfg`'s report on each workload of the batch, in catalog order.
fn each<'a>(s: &Scale, r: &Reports<'a>, cfg: &SimConfig) -> Vec<(Workload, &'a SimReport)> {
    let reports: Vec<_> = s.workload_list().iter().map(|w| r.get(w, cfg)).collect();
    s.workload_list().into_iter().zip(reports).collect()
}

/// `metric(cfg's report, the baseline's report)` on each workload of
/// the batch, in catalog order.
fn over_base(s: &Scale, r: &Reports, cfg: &SimConfig, metric: Metric) -> Vec<f64> {
    let base = s.method("Baseline");
    let reports = each(s, r, cfg);
    reports
        .iter()
        .map(|(w, rep)| metric(rep, r.get(w, &base)))
        .collect()
}

type Metric = fn(&SimReport, &SimReport) -> f64;

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Covered over total memory access latency, summed over the batch's
/// workloads.
fn cmal(s: &Scale, r: &Reports, cfg: &SimConfig) -> f64 {
    let (mut covered, mut total) = (0.0, 0.0);
    for (_, rep) in each(s, r, cfg) {
        covered += rep.cmal_covered;
        total += rep.cmal_total;
    }
    if total > 0.0 {
        covered / total
    } else {
        0.0
    }
}

/// The default machine with `prefetcher`, at the batch scale.
fn with_prefetcher(s: &Scale, prefetcher: PrefetcherKind) -> SimConfig {
    let mut cfg = s.config(SimConfig::default());
    cfg.prefetcher = prefetcher;
    cfg
}

/// Fig. 1 — Shotgun U-BTB footprint miss ratio per workload (paper:
/// 4–31 %, worst on OLTP DB A).
pub fn fig01_footprint_miss(s: &Scale, r: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 1",
        "Footprint miss ratio in Shotgun's U-BTB",
        &["Workload", "Footprint miss ratio"],
    );
    for (w, rep) in each(s, r, &s.method("Shotgun")) {
        // The Shotgun runner always attaches its stats; render a
        // placeholder rather than failing the figure if it ever stops.
        let cell = match &rep.shotgun {
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
pub fn tab1_empty_ftq(s: &Scale, r: &Reports) -> Table {
    let mut t = Table::new(
        "Table I",
        "Empty-FTQ stall cycles in Shotgun",
        &["Workload", "Fraction of cycles"],
    );
    for (w, rep) in each(s, r, &s.method("Shotgun")) {
        let cell = Table::pct(rep.empty_ftq_fraction());
        t.row(vec![w.name.to_owned(), cell]);
    }
    t.note("Paper: 1.64% (OLTP DB B) to 18.87% (OLTP DB A).");
    t
}

/// Fig. 2 — fraction of L1i misses that are sequential (paper:
/// 65–80 %).
pub fn fig02_seq_fraction(s: &Scale, r: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 2",
        "Fraction of sequential cache misses (no prefetcher)",
        &["Workload", "Sequential fraction"],
    );
    for (w, rep) in each(s, r, &s.method("Baseline")) {
        t.row(vec![w.name.to_owned(), Table::pct(rep.seq_miss_fraction())]);
    }
    t.note("Paper: 65-80% of L1i misses are sequential.");
    t
}

/// Fig. 3 — NL *sequential* miss coverage (paper: ≈ 63 % average).
pub fn fig03_nl_coverage(s: &Scale, r: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 3",
        "NL sequential miss coverage",
        &["Workload", "Sequential-miss coverage"],
    );
    fn seq_rate(rep: &SimReport) -> f64 {
        rep.seq_misses as f64 / rep.instrs.max(1) as f64
    }
    let covs = over_base(s, r, &s.method("NL"), |rep, base| {
        if seq_rate(base) > 0.0 {
            1.0 - seq_rate(rep) / seq_rate(base)
        } else {
            0.0
        }
    });
    for (w, c) in s.workload_list().iter().zip(&covs) {
        t.row(vec![w.name.to_owned(), Table::pct(*c)]);
    }
    t.row(vec!["Average".to_owned(), Table::pct(mean(&covs))]);
    t.note("Paper: 63% average — NL's timeliness leaves ~37% of sequential misses.");
    t
}

/// The next-X-line prefetchers of Figs. 4 and 5, each prefetching into
/// the prefetch buffer.
fn nxl_buffered(s: &Scale) -> Vec<Row> {
    let mut rows = methods(s, &["NL", "N2L", "N4L", "N8L"]);
    for (_, cfg) in &mut rows {
        cfg.use_prefetch_buffer = true;
    }
    rows
}

/// Fig. 4 — CMAL for NL / N2L / N4L / N8L (paper: 65 / 80 / 88 / 85 %).
pub fn fig04_cmal_nxl(s: &Scale, r: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 4",
        "Covered Memory Access Latency of sequential prefetchers",
        &["Prefetcher", "CMAL (avg)"],
    );
    for (method, cfg) in nxl_buffered(s) {
        t.row(vec![method, Table::pct(cmal(s, r, &cfg))]);
    }
    t.note(
        "Paper: NL 65%, N2L 80%, N4L 88%, N8L 85% — N8L loses to N4L from self-inflicted traffic.",
    );
    t
}

/// Fig. 5 — side effects of useless prefetches: average LLC latency and
/// L1i external bandwidth vs. baseline (paper: N8L +28 % latency, 7.2×
/// bandwidth).
pub fn fig05_side_effects(s: &Scale, r: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 5",
        "LLC access latency and L1i external bandwidth (normalized)",
        &["Prefetcher", "LLC latency", "External bandwidth"],
    );
    for (method, cfg) in nxl_buffered(s) {
        let lat = mean(&over_base(s, r, &cfg, SimReport::llc_latency_over));
        let bw = mean(&over_base(s, r, &cfg, SimReport::bandwidth_over));
        t.row(vec![method, Table::x(lat), Table::x(bw)]);
    }
    t.note("Paper: N8L inflates LLC latency by 28% at 7.2x external bandwidth.");
    t
}

/// `f` on a fresh walker over each workload's Fixed4 image, on the
/// worker pool, in catalog order.
fn on_walkers<R: Send>(s: &Scale, f: impl Fn(&mut Walker) -> R + Sync) -> Vec<R> {
    parallel_map_jobs(s.workload_list(), s.jobs, |w| {
        f(&mut Walker::new(image_for(w, IsaMode::Fixed4), TRACE_SEED))
    })
}

/// Fig. 6 — predictability of the 4-subsequent-block access pattern
/// (paper: ≈ 92 %).
pub fn fig06_pattern_pred(s: &Scale, _: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 6",
        "Predictability of the four-subsequent-block access pattern",
        &["Workload", "Prediction accuracy"],
    );
    let l1i = dcfb_cache::CacheConfig::l1i();
    let ps = on_walkers(s, |w| analysis::pattern_predictability(w, l1i, s.measure));
    for (w, p) in s.workload_list().iter().zip(ps) {
        t.row(vec![w.name.to_owned(), Table::pct(p)]);
    }
    t.note("Paper: 92% on average.");
    t
}

/// Fig. 7 — stability of the branch causing a block's discontinuity
/// (paper: 78–83 %).
pub fn fig07_branch_stability(s: &Scale, _: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 7",
        "Predictability of the discontinuity-causing branch",
        &["Workload", "Same-branch fraction"],
    );
    let ss = on_walkers(s, |w| analysis::discontinuity_stability(w, s.measure));
    for (w, st) in s.workload_list().iter().zip(ss) {
        t.row(vec![w.name.to_owned(), Table::pct(st)]);
    }
    t.note("Paper: 78% (Web Apache) to 83% (OLTP DB A), 80% average.");
    t
}

/// Fig. 8 — uncovered branches vs. branches per branch footprint
/// (paper: 4 offsets cover almost all branches).
pub fn fig08_bf_branches(s: &Scale, _: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 8",
        "Uncovered branches vs. branch-footprint capacity",
        &["Branches per BF", "Uncovered branches (avg)"],
    );
    for per_bf in [1usize, 2, 3, 4, 6, 8] {
        let covs = parallel_map_jobs(s.workload_list(), s.jobs, |w| {
            analysis::branch_footprint_coverage(&image_for(w, IsaMode::Fixed4), per_bf)
        });
        t.row(vec![per_bf.to_string(), Table::pct(mean(&covs))]);
    }
    t.note("Paper: storing 4 branch offsets per 64 B block covers almost all branches.");
    t
}

/// Fig. 9 — uncovered branch footprints vs. BF slots per LLC set
/// (paper: 2 → ~2 %, 3 → 0.4 %, 4 → 0.2 %).
pub fn fig09_bf_per_set(s: &Scale, _: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 9",
        "Uncovered branch footprints vs. BF slots per LLC set",
        &["BFs per set", "Uncovered (avg)"],
    );
    // One core-visible LLC slice: 2 MiB / 64 B / 16 ways = 2048 sets.
    for slots in [1usize, 2, 3, 4] {
        let covs = on_walkers(s, |w| {
            analysis::bf_per_set_coverage(w, 2048, slots, s.measure)
        });
        t.row(vec![slots.to_string(), Table::pct(mean(&covs))]);
    }
    t.note("Paper: 2 slots leave ~2%, 3 leave 0.4%, 4 leave 0.2% of BFs uncovered.");
    t
}

/// Fig. 11's rows: SN4L by SeqTable size, then SN4L+Dis by DisTable
/// size.
fn fig11_rows(s: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for (label, seq_entries) in [
        ("SN4L, 2K SeqTable", 2048),
        ("SN4L, 4K SeqTable", 4096),
        ("SN4L, 16K SeqTable", 16 * 1024),
        ("SN4L, 64K SeqTable", 64 * 1024),
        ("SN4L, unlimited", 1 << 24),
    ] {
        rows.push((label, PrefetcherKind::Sn4l { seq_entries }));
    }
    for (label, dis_entries, unlimited) in [
        ("SN4L+Dis, 1K DisTable", 1024, false),
        ("SN4L+Dis, 4K DisTable", 4096, false),
        ("SN4L+Dis, 16K DisTable", 16 * 1024, false),
        ("SN4L+Dis, unlimited", 1 << 22, true),
    ] {
        let mut c = Sn4lDisConfig::without_btb();
        c.dis_entries = dis_entries;
        if unlimited {
            c.dis_tag = TagPolicy::Full;
        }
        rows.push((label, PrefetcherKind::Sn4lDis(c)));
    }
    let row = |(label, kind): (&str, _)| (label.to_owned(), with_prefetcher(s, kind));
    rows.into_iter().map(row).collect()
}

/// Fig. 11 — miss coverage vs. SeqTable and DisTable size (paper: 16 K
/// SeqTable reaches 96 % of unlimited; 4 K DisTable reaches 97 %).
pub fn fig11_table_sizes(s: &Scale, r: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 11",
        "Miss coverage vs. metadata table size",
        &["Configuration", "Coverage (avg)"],
    );
    for (label, cfg) in fig11_rows(s) {
        let cov = mean(&over_base(s, r, &cfg, SimReport::miss_coverage_over));
        t.row(vec![label, Table::pct(cov)]);
    }
    t.note(
        "Paper: 16K-entry SeqTable gives 96% of unlimited coverage; 4K-entry DisTable gives 97%.",
    );
    t
}

/// Fig. 12's rows: the standalone Dis prefetcher per tagging policy.
fn fig12_rows(s: &Scale) -> Vec<Row> {
    let policies = [
        ("Tagless", TagPolicy::Tagless),
        ("4-bit partial", TagPolicy::Partial(4)),
        ("Full", TagPolicy::Full),
    ];
    let dis = |tag| PrefetcherKind::Dis {
        dis_entries: 4 * 1024,
        tag,
    };
    let row = |(name, tag): (&str, _)| (name.to_owned(), with_prefetcher(s, dis(tag)));
    policies.into_iter().map(row).collect()
}

/// Fig. 12 — DisTable overprediction under different tagging policies
/// (paper: tagless ≫ 4-bit partial ≈ full).
pub fn fig12_tagging(s: &Scale, r: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 12",
        "Overprediction of DisTable tagging policies",
        &["Policy", "Useless prefetches / 1K instr (avg)"],
    );
    let useless_pki = |rep: &SimReport| {
        rep.l1i.useless_prefetch_evictions as f64 * 1000.0 / rep.instrs.max(1) as f64
    };
    for (name, cfg) in fig12_rows(s) {
        let v: Vec<f64> = each(s, r, &cfg)
            .iter()
            .map(|(_, rep)| useless_pki(rep))
            .collect();
        t.row(vec![name, format!("{:.2}", mean(&v))]);
    }
    t.note("Paper: the tagless table overpredicts heavily; a 4-bit partial tag nearly matches a full tag.");
    t
}

const FIG13: [&str; 4] = ["N4L", "SN4L", "Dis", "SN4L+Dis+BTB"];

/// Fig. 13 — timeliness (CMAL) of N4L, SN4L, Dis, SN4L+Dis+BTB (paper:
/// 88 / 93 / 89 / 91 %).
pub fn fig13_timeliness(s: &Scale, r: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 13",
        "Timeliness (CMAL) of the proposed prefetchers",
        &["Prefetcher", "CMAL (avg)"],
    );
    for (method, cfg) in methods(s, &FIG13) {
        t.row(vec![method, Table::pct(cmal(s, r, &cfg))]);
    }
    t.note("Paper: N4L 88%, SN4L 93%, Dis 89%, SN4L+Dis+BTB 91%.");
    t
}

/// SN4L+Dis+BTB on the default machine, its engine changed by `edit`.
fn proactive(s: &Scale, edit: impl FnOnce(&mut Sn4lDisConfig)) -> SimConfig {
    let mut c = Sn4lDisConfig::default();
    edit(&mut c);
    with_prefetcher(s, PrefetcherKind::Sn4lDis(c))
}

/// Fig. 14's rows: four methods, then the RLU ablation — the combined
/// engine without an effective RLU (capacity 1) versus the paper's
/// 8-entry filter.
fn fig14_rows(s: &Scale) -> Vec<Row> {
    let mut rows = methods(s, &["N4L", "SN4L+Dis+BTB", "Shotgun", "Confluence"]);
    for rlu in [1usize, 8] {
        let cfg = proactive(s, |c| c.rlu_entries = rlu);
        rows.push((format!("SN4L+Dis+BTB (RLU={rlu})"), cfg));
    }
    rows
}

/// Fig. 14 — cache lookups normalized to no-prefetcher (RLU
/// effectiveness; paper: Confluence lowest, ours ≈ Shotgun).
pub fn fig14_lookups(s: &Scale, r: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 14",
        "L1i lookups, normalized to a machine with no prefetcher",
        &["Method", "Lookups (avg)"],
    );
    for (label, cfg) in fig14_rows(s) {
        let lookups = mean(&over_base(s, r, &cfg, SimReport::lookups_over));
        t.row(vec![label, Table::x(lookups)]);
    }
    t.note("Paper: an 8-entry RLU suffices; Confluence needs the fewest lookups; ours ≈ Shotgun.");
    t
}

const HEADLINE: [&str; 3] = ["SN4L+Dis+BTB", "Shotgun", "Confluence"];

/// Each headline method's `metric` over the baseline, per workload: one
/// column per method.
fn headline(s: &Scale, r: &Reports, metric: Metric) -> Vec<Vec<f64>> {
    let cfgs = methods(s, &HEADLINE);
    cfgs.iter()
        .map(|(_, cfg)| over_base(s, r, cfg, metric))
        .collect()
}

/// Fig. 15 — Frontend Stall Cycle Reduction (paper: ours 61 %, Shotgun
/// 35 %, Confluence 32 %).
pub fn fig15_fscr(s: &Scale, r: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 15",
        "Frontend stall-cycle reduction (FSCR)",
        &["Workload", "SN4L+Dis+BTB", "Shotgun", "Confluence"],
    );
    let cols = headline(s, r, SimReport::fscr_over);
    for (i, w) in s.workload_list().iter().enumerate() {
        let cells = cols.iter().map(|col| Table::pct(col[i]));
        t.row(std::iter::once(w.name.to_owned()).chain(cells).collect());
    }
    let avg = cols.iter().map(|col| Table::pct(mean(col)));
    t.row(std::iter::once("Average".to_owned()).chain(avg).collect());
    t.note("Paper: SN4L+Dis+BTB 61%, Shotgun 35%, Confluence 32% on average.");
    t
}

/// Fig. 16 — speedup over the no-prefetcher baseline (paper: ours 19 %
/// avg, 7–50 %; +5 % over Shotgun, +16 % on OLTP DB A).
pub fn fig16_speedup(s: &Scale, r: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 16",
        "Speedup over a baseline with no instruction/BTB prefetcher",
        &["Workload", "SN4L+Dis+BTB", "Shotgun", "Confluence"],
    );
    let cols = headline(s, r, SimReport::speedup_over);
    for (i, w) in s.workload_list().iter().enumerate() {
        let cells = cols.iter().map(|col| Table::x(col[i]));
        t.row(std::iter::once(w.name.to_owned()).chain(cells).collect());
    }
    let gm = cols
        .iter()
        .map(|col| Table::x(geomean(col.iter().copied())));
    t.row(std::iter::once("Geomean".to_owned()).chain(gm).collect());
    t.note("Paper: SN4L+Dis+BTB +19% average (range +7% Web Frontend to +50% Media Streaming), 5% over Shotgun, 16% over Shotgun on OLTP (DB A).");
    t
}

/// Fig. 17's rows: the combined engine built up part by part, then the
/// perfect-L1i bounds.
fn fig17_rows(s: &Scale) -> Vec<Row> {
    let mut rows = methods(s, &["N4L", "SN4L", "SN4L+Dis", "SN4L+Dis+BTB"]);
    let mut perfect = s.config(SimConfig::default());
    perfect.perfect_l1i = true;
    rows.push(("Perfect L1i".to_owned(), perfect.clone()));
    perfect.perfect_btb = true;
    rows.push(("Perfect L1i + BTB inf".to_owned(), perfect));
    rows
}

/// Fig. 17 — performance breakdown: N4L, SN4L, SN4L+Dis, SN4L+Dis+BTB,
/// Perfect L1i, Perfect L1i + BTB∞ (paper: 13/15/19/—/29 %).
pub fn fig17_breakdown(s: &Scale, r: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 17",
        "Performance breakdown of SN4L+Dis+BTB components",
        &["Configuration", "Speedup (geomean)"],
    );
    for (label, cfg) in fig17_rows(s) {
        let speedup = geomean(over_base(s, r, &cfg, SimReport::speedup_over));
        t.row(vec![label, Table::x(speedup)]);
    }
    t.note("Paper: SN4L +13%, SN4L+Dis +15%, SN4L+Dis+BTB +19% (close to Perfect L1i), Perfect L1i+BTBinf +29%.");
    t
}

const FIG18_BTB: [f64; 4] = [1.0, 0.5, 0.25, 0.125];

/// SN4L+Dis+BTB and Shotgun with their BTBs scaled by `btb_scale`.
fn fig18_pair(s: &Scale, btb_scale: f64) -> [SimConfig; 2] {
    ["SN4L+Dis+BTB", "Shotgun"].map(|m| {
        let mut cfg = s.method(m);
        cfg.scale_btb(btb_scale);
        cfg
    })
}

/// Fig. 18 — speedup of SN4L+Dis+BTB over Shotgun as the BTB shrinks
/// (paper: the gap widens as BTB size decreases).
pub fn fig18_btb_sweep(s: &Scale, r: &Reports) -> Table {
    let mut t = Table::new(
        "Fig. 18",
        "Speedup of SN4L+Dis+BTB over Shotgun vs. BTB size",
        &["BTB scale", "Ours / Shotgun (geomean)"],
    );
    for btb_scale in FIG18_BTB {
        let [ours, shot] = fig18_pair(s, btb_scale);
        let ratio = |w: Workload| r.get(&w, &ours).ipc() / r.get(&w, &shot).ipc().max(1e-9);
        let speedup = geomean(s.workload_list().into_iter().map(ratio));
        t.row(vec![format!("{btb_scale:.3}x"), Table::x(speedup)]);
    }
    t.note("Paper: as the BTB shrinks (larger effective footprints), the gap over Shotgun widens.");
    t
}

/// Table II — storage overhead and qualitative comparison.
pub fn tab2_storage(_: &Scale, _: &Reports) -> Table {
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
    #[rustfmt::skip]
    let rows = [
        ["BTB modification", "No", "Yes (U/C/RIB split)", "Yes (AirBTB)"],
        ["Instruction prefetch buffer", "No", "Yes (64-entry)", "No"],
        ["Search complexity", "Low (2 direct-mapped tables)", "High (3 BTBs + 2 CAMs)", "High (2-step LLC chase)"],
        ["Modularity", "Yes", "No", "No"],
        ["Handles very large footprints", "Yes", "No (U-BTB bound)", "Yes"],
    ];
    for row in rows {
        t.row(row.map(str::to_owned).to_vec());
    }
    t.note("Paper: 7.6 KB (ours) vs 6 KB (Shotgun) vs >200 KB virtualized (Confluence).");
    t
}

/// SN4L+Dis+BTB on the variable-length ISA with the DV-LLC on and off,
/// for each of the batch's first three workloads.
fn dvllc_pairs(s: &Scale) -> Vec<(Workload, [SimConfig; 2])> {
    let cfgs = [true, false].map(|dvllc| {
        let mut cfg = s.method("SN4L+Dis+BTB");
        cfg.isa = IsaMode::Variable;
        cfg.uncore.dvllc = dvllc;
        cfg
    });
    s.workload_list()
        .into_iter()
        .take(3)
        .map(|w| (w, cfgs.clone()))
        .collect()
}

fn dvllc_runs(s: &Scale) -> Vec<RunSpec> {
    let pairs = dvllc_pairs(s);
    let specs = pairs
        .iter()
        .flat_map(|(w, cfgs)| cfgs.clone().map(|c| RunSpec::new(w, c)));
    specs.collect()
}

/// §VII-J — DV-LLC impact: instruction/data hit ratios with
/// virtualization on vs. off (paper: data hit ratio drops ≤ 0.1 %).
pub fn dvllc_impact(s: &Scale, r: &Reports) -> Table {
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
    let hit = |rep: &SimReport| rep.uncore.llc_hits as f64 / rep.uncore.requests.max(1) as f64;
    for (w, [on, off]) in dvllc_pairs(s) {
        let (hit_on, hit_off) = (hit(r.get(&w, &on)), hit(r.get(&w, &off)));
        t.row(vec![
            w.name.to_owned(),
            Table::pct(hit_on),
            Table::pct(hit_off),
            Table::pct((hit_off - hit_on).max(0.0)),
        ]);
    }
    t.note("Paper: instruction hit ratio unchanged; data hit ratio drops at most 0.1%.");
    t
}

/// The ablation's rows for the proactive engine's design choices (the
/// parameters §V-B fixes empirically):
///
/// * chain-termination depth — "four is a reasonable threshold",
/// * SN1L vs. SN4L past discontinuities — "we use SN1L ... the
///   timeliness is obtained at the cost of lower prefetch accuracy",
/// * RLU capacity — "an RLU of eight entries performs well" (Fig. 14).
fn ablation_rows(s: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for depth in [0u8, 2, 4, 8] {
        let cfg = proactive(s, |c| c.max_depth = depth);
        rows.push((format!("chain depth {depth}"), cfg));
    }
    for degree in [1u64, 2, 4] {
        let label = match degree {
            1 => "SN1L past discontinuities (paper)".to_owned(),
            n => format!("SN{n}L past discontinuities"),
        };
        rows.push((label, proactive(s, |c| c.deep_seq_degree = degree)));
    }
    for rlu in [1usize, 4, 8, 32] {
        rows.push((
            format!("RLU {rlu} entries"),
            proactive(s, |c| c.rlu_entries = rlu),
        ));
    }
    rows
}

/// Ablation — the proactive engine's design choices, each a variant of
/// SN4L+Dis+BTB (paper: depth 4, SN1L past discontinuities, 8-entry
/// RLU). Not part of the default batch.
pub fn ablation_proactive(s: &Scale, r: &Reports) -> Table {
    let mut t = Table::new(
        "Ablation",
        "Proactive-engine design choices (SN4L+Dis+BTB variants)",
        &[
            "Variant",
            "Speedup (geomean)",
            "CMAL",
            "Ext. bandwidth (avg)",
            "Cache lookups (avg)",
        ],
    );
    for (label, cfg) in ablation_rows(s) {
        let over = |metric| over_base(s, r, &cfg, metric);
        t.row(vec![
            label,
            Table::x(geomean(over(SimReport::speedup_over))),
            Table::pct(cmal(s, r, &cfg)),
            Table::x(mean(&over(SimReport::bandwidth_over))),
            Table::x(mean(&over(SimReport::lookups_over))),
        ]);
    }
    t.note("Paper choices: depth 4, SN1L past discontinuities, 8-entry RLU.");
    t
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn default_plan_runs_223_distinct_specs_at_seven_workloads() {
        // Planning only: nothing runs.
        let (warmup, measure) = (2000, 3000);
        let scale = Scale {
            warmup,
            measure,
            workloads: 7,
            jobs: 1,
        };
        let declared: Vec<RunSpec> = all().iter().flat_map(|f| (f.runs)(&scale)).collect();
        let distinct = crate::runs::distinct(&declared);
        assert_eq!(distinct.len(), 223);
        // The typed key neither merges nor splits configurations: it
        // agrees with keying by each configuration's full Debug text.
        let text = |s: &RunSpec| (s.workload, format!("{:?}", s.cfg));
        assert_eq!(declared.iter().map(text).collect::<HashSet<_>>().len(), 223);
    }

    #[test]
    fn ids_select_in_paper_order_and_unknown_ids_are_errors() {
        let ids = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        let picked = select(&ids(&["ablation", "fig16", "tab1"])).unwrap();
        let picked: Vec<_> = picked.iter().map(|f| f.id).collect();
        assert_eq!(picked, ["tab1", "fig16", "ablation"]);
        assert_eq!(select(&[]).unwrap().len(), all().len());
        assert!(all().iter().all(|f| f.id != "ablation"));
        let e = select(&ids(&["fig10"])).err().unwrap();
        assert!(e.contains("\"fig10\"") && e.contains("fig16, fig17"), "{e}");
    }
}
