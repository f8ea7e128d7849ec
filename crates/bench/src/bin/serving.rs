//! Open-loop serving bench — the standing `serving` perf regime of the
//! committed baseline (`BENCH_<pr>.json`).
//!
//! Where the `throughput` bench is closed-loop (push a batch as fast as
//! it goes, report makespan), this binary drives the resilient backend
//! with `unidm::serve`: a seeded open-loop load generator injecting a
//! ten-tenant mix of the paper scenarios' recorded canonical prompt
//! streams on Poisson, bursty and diurnal arrival processes, under
//! moderate injected faults. It reports per-tenant p50/p99/p999
//! end-to-end latency, SLO attainment and goodput — all in virtual time,
//! all bit-identical at a fixed seed.
//!
//! Determinism is asserted, not hoped for: every run executes the
//! simulation three times against identically constructed fresh stacks —
//! at 1 replay worker, at 8, and once more at 8 — and requires the full
//! reports (traces included) to compare equal before anything is
//! written.
//!
//! ```text
//! cargo run -p unidm-bench --release --bin serving -- \
//!     [--quick] [--seed N] [--fault-seed N] [--bench-json PATH] [--store PATH]
//! ```
//!
//! `--store PATH` routes every tenant's traffic through a
//! [`unidm::PromptCache`] backed by the shared `UDMCACHE1` disk tier at
//! `PATH` (created on first use), beneath the resilient backend. The
//! cache sits below the fault injector, so simulated latency, SLO
//! accounting and the pinned counters are untouched — the flag only
//! persists the mix's completions into the tiered store (and replays
//! them on later runs), which is why it is opt-in rather than default.
//!
//! When `PATH` already holds a bench baseline (the `throughput` binary's
//! output), the `serving` section is spliced into it, replacing any
//! previous `serving` section; otherwise a minimal standalone document
//! is written. `scripts/diff_bench.py` pins the section's exact counters
//! (requests, errors, replay mismatches, SLO attainment) between
//! consecutive committed baselines, and — from `BENCH_19` on — gates
//! `allocs_per_request`: heap allocations per request of the 1-worker
//! run, model included, which all happen on the calling thread and so
//! count exactly.

use std::path::PathBuf;

use unidm::serve::{ArrivalProcess, ServeConfig, ServeReport, ServeSim, TenantSpec};
use unidm::{BackendConfig, CacheStore, CanonLevel, PromptCache, StoreConfig};
use unidm_bench::alloc_counter::AllocationDelta;
use unidm_bench::{json_array, JsonObject, BASELINE_PR};
use unidm_eval::streams::{record_streams, PromptStream};
use unidm_llm::{FaultPlan, LanguageModel, LlmProfile, MockLlm};
use unidm_world::World;

/// Concurrent service slots of the simulated deployment — provisioned
/// so the paper-scale mix runs near 50% utilization: queueing and fault
/// tails are visible in the p99/p999 without drowning every tenant in
/// saturation (a saturated regime has no sensitivity left for the diff
/// gate to detect regressions with).
const SERVERS: u32 = 16;

/// Per-tenant SLOs cycle through tight / standard / relaxed, µs.
const SLOS_US: [u64; 3] = [300_000, 1_000_000, 5_000_000];

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|pos| args.get(pos + 1))
        .filter(|v| !v.starts_with("--"))
        .cloned()
}

/// The ten-tenant serving mix: one tenant per recorded scenario stream,
/// with arrival process, rate and SLO assigned deterministically by
/// stream position so the workload is a pure function of the seed.
fn build_sim(
    seed: u64,
    workers: usize,
    streams: &[PromptStream],
    requests_per_tenant: u32,
) -> ServeSim {
    let mut sim = ServeSim::new(
        ServeConfig::new(seed)
            .with_servers(SERVERS)
            .with_workers(workers),
    );
    for (i, stream) in streams.iter().enumerate() {
        let arrival = match i % 3 {
            0 => ArrivalProcess::Poisson,
            1 => ArrivalProcess::Bursty {
                burst: 4 + i as u32,
            },
            _ => ArrivalProcess::Diurnal {
                period_us: 60_000_000,
            },
        };
        sim = sim.tenant(
            TenantSpec::new(stream.scenario, stream.prompts.clone())
                .with_arrival(arrival)
                .with_rate_milli_per_s(400 + i as u64 * 150)
                .with_requests(requests_per_tenant)
                .with_slo_us(SLOS_US[i % SLOS_US.len()]),
        );
    }
    sim
}

fn serving_json(
    report: &ServeReport,
    seed: u64,
    fault_seed: u64,
    allocs_per_request: u64,
) -> String {
    let tenant_json: Vec<String> = report
        .tenants
        .iter()
        .map(|t| {
            JsonObject::new()
                .field_str("name", &t.name)
                .field_u64("requests", t.requests)
                .field_u64("ok", t.ok)
                .field_u64("errors", t.errors)
                .field_u64("slo_us", t.slo_us)
                .field_u64("slo_met", t.slo_met)
                .field_u64("attainment_permille", t.attainment_permille)
                .field_u64("goodput_per_ks", t.goodput_per_ks)
                .field_u64("min_us", t.latency.min_us())
                .field_u64("p50_us", t.latency.quantile_us(500))
                .field_u64("p99_us", t.latency.quantile_us(990))
                .field_u64("p999_us", t.latency.quantile_us(999))
                .field_u64("max_us", t.latency.quantile_us(1000))
                .finish()
        })
        .collect();
    JsonObject::new()
        .field_u64("seed", seed)
        .field_u64("fault_seed", fault_seed)
        .field_u64("servers", u64::from(SERVERS))
        .field_u64("requests", report.requests)
        .field_u64("errors", report.errors)
        .field_u64("slo_met", report.slo_met)
        .field_u64("attainment_permille", report.attainment_permille())
        .field_u64("goodput_per_ks", report.goodput_per_ks())
        .field_u64("replay_mismatches", report.replay_mismatches)
        .field_u64("makespan_us", report.makespan_us)
        .field_u64("trace_fnv", report.trace_fnv())
        .field_u64("allocs_per_request", allocs_per_request)
        .field_raw("tenants", &json_array(&tenant_json))
        .finish()
}

/// Splices `"serving": {...}` into an existing single-object baseline
/// document (replacing a previous serving section), or wraps it in a
/// minimal standalone document when no baseline exists at `path`.
fn write_section(path: &PathBuf, seed: u64, section: &str) {
    const MARKER: &str = ",\"serving\":";
    let doc = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            // Strip exactly the document's closing brace — a blanket
            // trim would eat the nested sections' closers too.
            let base = trimmed.strip_suffix('}').unwrap_or(trimmed);
            let base = match base.find(MARKER) {
                Some(pos) => &base[..pos],
                None => base,
            };
            format!("{base}{MARKER}{section}}}")
        }
        Err(_) => JsonObject::new()
            .field_u64("pr", BASELINE_PR)
            .field_str("bench", "serving")
            .field_u64("seed", seed)
            .field_raw("serving", section)
            .finish(),
    };
    match std::fs::write(path, doc + "\n") {
        Ok(()) => println!("(wrote serving section to {})", path.display()),
        Err(e) => println!("(serving section not written: {e})"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let fault_seed: u64 = arg_value(&args, "--fault-seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let path = arg_value(&args, "--bench-json")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("BENCH_{BASELINE_PR}.json")));
    let store_path = arg_value(&args, "--store").map(PathBuf::from);
    let (stream_queries, requests_per_tenant) = if quick { (3, 30) } else { (6, 150) };

    println!("recording the ten scenarios' canonical prompt streams (seed {seed})...");
    let streams = record_streams(seed, stream_queries);
    for stream in &streams {
        println!(
            "  {:<22} {:>4} canonical prompts",
            stream.scenario,
            stream.prompts.len()
        );
    }

    // Returns the report and how many heap allocations the simulation
    // made, stack construction excluded.
    let run = |workers: usize| -> (ServeReport, u64) {
        let world = World::generate(seed);
        let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), seed);
        let backend = BackendConfig::resilient(seed).with_faults(FaultPlan::moderate(fault_seed));
        let sim = build_sim(seed, workers, &streams, requests_per_tenant);
        let run_counted = |model: &dyn LanguageModel| {
            let stack = backend.wrap(model);
            let section = AllocationDelta::start();
            let report = sim.run(&stack);
            (report, section.allocations())
        };
        match &store_path {
            Some(store_file) => {
                if let Some(parent) = store_file.parent() {
                    let _ = std::fs::create_dir_all(parent);
                }
                let store = CacheStore::open(store_file, llm.name(), StoreConfig::default())
                    .expect("serving store opens");
                let cache = PromptCache::unbounded(&llm)
                    .with_canonicalization(CanonLevel::TableStem)
                    .with_store(store);
                run_counted(&cache)
            }
            None => run_counted(&llm),
        }
    };

    println!(
        "\nopen-loop run: {} tenants x {requests_per_tenant} requests, {SERVERS} servers, \
         moderate faults (seed {fault_seed})",
        streams.len()
    );
    let (serial, serial_allocs) = run(1);
    let (parallel, _) = run(8);
    let (rerun, _) = run(8);
    assert_eq!(
        serial, parallel,
        "replay worker count must not change the open-loop report"
    );
    assert_eq!(
        parallel, rerun,
        "rerun at the same seed must reproduce the report"
    );
    assert_eq!(serial.trace_fnv(), parallel.trace_fnv());
    assert_eq!(
        serial.replay_mismatches, 0,
        "the resilient stack is prompt-deterministic"
    );
    println!(
        "determinism: 1-worker == 8-worker == rerun (trace fnv {:#018x})",
        serial.trace_fnv()
    );
    let allocs_per_request = serial_allocs / serial.requests.max(1);
    println!("1-worker run: {allocs_per_request} heap allocations per request, model included");
    if let Some(store_file) = &store_path {
        match CacheStore::open(
            store_file,
            &LlmProfile::gpt3_175b().name,
            StoreConfig::default(),
        ) {
            Ok(store) => println!(
                "tiered store: {} completions persisted at {}",
                store.len(),
                store_file.display()
            ),
            Err(e) => println!("tiered store not readable after the runs: {e}"),
        }
    }

    println!(
        "\n{:<22} {:>5} {:>4} {:>9} {:>9} {:>9} {:>6} {:>8}",
        "tenant", "reqs", "err", "p50_ms", "p99_ms", "p999_ms", "slo%", "good/ks"
    );
    for t in &serial.tenants {
        println!(
            "{:<22} {:>5} {:>4} {:>9.1} {:>9.1} {:>9.1} {:>6.1} {:>8}",
            t.name,
            t.requests,
            t.errors,
            t.latency.quantile_us(500) as f64 / 1_000.0,
            t.latency.quantile_us(990) as f64 / 1_000.0,
            t.latency.quantile_us(999) as f64 / 1_000.0,
            t.attainment_permille as f64 / 10.0,
            t.goodput_per_ks,
        );
    }
    println!(
        "\ntotal: {} requests, {} errors, {} within SLO ({:.1}%), makespan {:.1} virtual s, \
         goodput {} answers/ks",
        serial.requests,
        serial.errors,
        serial.slo_met,
        serial.attainment_permille() as f64 / 10.0,
        serial.makespan_us as f64 / 1_000_000.0,
        serial.goodput_per_ks(),
    );

    write_section(
        &path,
        seed,
        &serving_json(&serial, seed, fault_seed, allocs_per_request),
    );
}
