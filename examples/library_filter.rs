//! The ligand-based screening front-end end to end: drug-likeness
//! filters with per-rule rejection accounting, circular fingerprints with
//! Tanimoto triage, the streaming `filter → fingerprint → score` pipeline
//! over bounded-memory chunks, and the campaign prefilter that turns the
//! ranked shortlist into contiguous job ranges.
//!
//! Run with:
//! ```sh
//! cargo run --release --example library_filter
//! ```

use deepfusion::prelude::*;

fn main() {
    let seed = 2021;

    // == 1. Rule filters: Lipinski vs the ZINC druglike gate ==
    // No rule reads a coordinate, so the bond graph alone decides.
    println!("== Drug-likeness gates ==");
    for filter in [RuleFilter::lipinski(), RuleFilter::zinc_druglike()] {
        let mut passed = 0u64;
        for i in 0..2_000u64 {
            let c = Compound::materialize_graph_only(Library::Chembl, i, seed);
            let d = Descriptors::compute(&c.mol);
            if filter.apply(&d).passed {
                passed += 1;
            }
        }
        println!(
            "  {:<14} {:>4}/2000 pass ({} rules, {} violation(s) tolerated)",
            filter.name,
            passed,
            filter.rules.len(),
            filter.max_violations
        );
    }

    // == 2. Streaming screen: 100k compounds through bounded chunks ==
    println!("\n== Streaming screen (100k compounds, 16 Ki-compound chunks) ==");
    let cfg = ScreenConfig::new(Library::Chembl, 100_000, seed);
    let outcome = screen_library(&cfg);
    let f = &outcome.funnel;
    println!(
        "  funnel: {} evaluated -> {} passed filter ({:.1}%) -> {} fingerprinted -> {} hits",
        f.evaluated,
        f.passed_filter,
        100.0 * f.filter_pass_rate(),
        f.fingerprinted,
        f.hits
    );
    println!("  per-rule rejections ({}):", cfg.filter.name);
    for (rule, rejected) in cfg.filter.rules.iter().zip(&outcome.tally.per_rule) {
        println!("    {:<22} {:>6}", rule.label(), rejected);
    }
    println!("  best survivors (ligand-only pseudo-affinity):");
    for r in outcome.top.iter().take(5) {
        println!("    compound {:>6}  score {:.3}", r.index, r.score);
    }

    // == 3. Fingerprint similarity over the shortlist ==
    println!("\n== Tanimoto triage over the top survivors ==");
    let fp_cfg = FingerprintConfig::default();
    let prints: Vec<Fingerprint> = outcome
        .top
        .iter()
        .map(|r| {
            let c = Compound::materialize_topology(Library::Chembl, r.index, seed);
            Fingerprint::compute(&fp_cfg, &c.mol)
        })
        .collect();
    let (mut best, mut pair) = (0.0f64, (0usize, 0usize));
    for i in 0..prints.len() {
        for j in i + 1..prints.len() {
            let t = prints[i].tanimoto(&prints[j]);
            if t > best {
                best = t;
                pair = (i, j);
            }
        }
    }
    println!(
        "  most similar shortlist pair: compounds {} and {} (Tanimoto {:.3})",
        outcome.top[pair.0].index, outcome.top[pair.1].index, best
    );

    // == 4. The campaign prefilter: shortlist -> contiguous job ranges ==
    println!("\n== Campaign prefilter ==");
    let pre = PrefilterConfig::new(Library::Chembl, 20_000, seed, 256);
    let picked = run_prefilter(&pre);
    let ranges = picked.selection_ranges(100); // split dense runs at 100 compounds/job
    println!(
        "  {} evaluated -> {} selected ({:.2}% of the library), {} contiguous job ranges",
        picked.funnel.evaluated,
        picked.shortlist.len(),
        100.0 * picked.reduction(),
        ranges.len()
    );
    let spec = JobSpec {
        job_id: 0,
        target: TargetSite::Spike1,
        library: Library::Chembl,
        first_compound: ranges[0].0,
        num_compounds: ranges[0].1,
        campaign_seed: seed,
        class: TaskClass::Dock,
        attempt: 0,
    };
    println!(
        "  first docking job: compounds [{}, {})",
        spec.first_compound,
        spec.first_compound + spec.num_compounds
    );
}
