//! Workload definitions and their inputs.
//!
//! Set-up builds each workload's designs from the suite table with
//! `rdp-gen` and `rdp_bench::prepare_design` (generation plus routing
//! capacity calibration), then writes them as LEF/DEF text. The timed
//! passes only ever see that text, as a user's flow would.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rdp_core::{PlacerPreset, RoutabilityConfig};
use rdp_gen::SuiteEntry;

/// What one operation of a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One pass: for each design, parse → place → legalize → detailed
    /// place, then evaluate when `evaluate` is set.
    Flow {
        /// Placer preset.
        preset: PlacerPreset,
        /// Whether a pass ends with the evaluation router and DRV count.
        evaluate: bool,
    },
    /// One job: a `lefdef:` input submitted to an in-process server.
    Serve,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// What it runs.
    pub kind: Kind,
    /// Suite designs of one pass (flow) or the job rotation (serve).
    pub designs: &'static [&'static str],
    /// Compute threads (capped at the machine's parallelism).
    pub threads: usize,
    /// A fixed routability-iteration budget: every design runs exactly
    /// this many iterations. Flow workloads raise the stop rule's
    /// patience to the budget; served jobs only cap `max_route_iters`,
    /// which at 3 (the least the stop rule runs) has the same effect.
    /// Without a budget the stop rule runs 3 to 10 iterations depending
    /// on the seed, and a run's work would change more with the seed than
    /// with the code.
    pub route_iters: Option<usize>,
}

impl Workload {
    /// The flow configuration of a `Kind::Flow` workload.
    pub fn flow_config(&self, preset: PlacerPreset) -> RoutabilityConfig {
        let mut cfg = RoutabilityConfig::preset(preset);
        if let Some(n) = self.route_iters {
            cfg.max_route_iters = n;
            cfg.stop_patience = n;
        }
        cfg
    }
}

/// The four workloads. Why each exists is recorded in `BENCHMARK.json`
/// and the README; in short: `gp_heavy` is wirelength GP only (the
/// router never runs), `route_heavy` is the routability loop,
/// `eval_heavy` is the refined-grid evaluation router, and
/// `serve_queue` is the durable job service.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "gp_heavy",
        kind: Kind::Flow {
            preset: PlacerPreset::Xplace,
            evaluate: false,
        },
        designs: &["superblue14"],
        threads: 1,
        route_iters: None,
    },
    Workload {
        name: "route_heavy",
        kind: Kind::Flow {
            preset: PlacerPreset::Ours,
            evaluate: true,
        },
        designs: &["matrix_mult_2"],
        threads: 2,
        route_iters: Some(5),
    },
    Workload {
        name: "eval_heavy",
        kind: Kind::Flow {
            preset: PlacerPreset::Xplace,
            evaluate: true,
        },
        designs: &["edit_dist_a"],
        threads: 2,
        route_iters: None,
    },
    Workload {
        name: "serve_queue",
        kind: Kind::Serve,
        designs: &["pci_bridge32_a", "pci_bridge32_b", "fft_a", "fft_b"],
        threads: 1,
        route_iters: Some(3),
    },
];

/// Designs every workload uses under `--smoke`: the two smallest of the
/// suite.
pub const SMOKE_DESIGNS: &[&str] = &["pci_bridge32_a", "pci_bridge32_b"];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The suite entry of `name` under benchmark seed `seed`. Seed 0 keeps
/// the canonical generator seed, so its numbers line up with Table I;
/// any other seed XORs a mix of itself into the generator seed, which
/// changes the netlist and placement but keeps the design's class,
/// size, utilization and congestion stress.
pub fn suite_entry(name: &str, seed: u64) -> Option<SuiteEntry> {
    let mut entry = rdp_gen::ispd2015_suite()
        .into_iter()
        .find(|e| e.name == name)?;
    // An odd multiplier is a bijection on u64, so distinct seeds give
    // distinct generator seeds, and seed 0 maps to 0.
    entry.params.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    Some(entry)
}

/// One design's input files on disk.
#[derive(Debug, Clone)]
pub struct InputFiles {
    /// Suite design name.
    pub name: &'static str,
    /// LEF-lite path.
    pub lef: PathBuf,
    /// DEF-lite path.
    pub def: PathBuf,
}

impl InputFiles {
    /// Reads the pair back as text.
    pub fn read(&self) -> std::io::Result<rdp_parse::LefDefFiles> {
        Ok(rdp_parse::LefDefFiles {
            lef: std::fs::read_to_string(&self.lef)?,
            def: std::fs::read_to_string(&self.def)?,
        })
    }

    /// The `lefdef:LEF:DEF` job input naming these files.
    pub fn job_input(&self) -> String {
        format!("lefdef:{}:{}", self.lef.display(), self.def.display())
    }
}

/// Time one set-up spent in each step, summed over its designs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Generation plus capacity calibration (`prepare_design`).
    pub prepare_s: f64,
    /// LEF/DEF serialization and file writes.
    pub write_s: f64,
}

/// Builds `designs` under `seed` and writes them into `dir`.
pub fn build_inputs(
    designs: &[&'static str],
    seed: u64,
    dir: &Path,
) -> Result<(Vec<InputFiles>, SetupTimes), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut times = SetupTimes::default();
    let mut files = Vec::with_capacity(designs.len());
    for &name in designs {
        let entry = suite_entry(name, seed).ok_or_else(|| format!("unknown design `{name}`"))?;
        let t = Instant::now();
        let design = rdp_bench::prepare_design(&entry);
        times.prepare_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let text = rdp_parse::write_lefdef(&design);
        let out = InputFiles {
            name,
            lef: dir.join(format!("{name}.lef")),
            def: dir.join(format!("{name}.def")),
        };
        for (path, body) in [(&out.lef, &text.lef), (&out.def, &text.def)] {
            std::fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        times.write_s += t.elapsed().as_secs_f64();
        files.push(out);
    }
    Ok((files, times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_reproduces_the_canonical_suite_design() {
        let entry = suite_entry("fft_a", 0).unwrap();
        let ours = rdp_gen::generate(entry.name, &entry.params);
        let canonical = rdp_gen::generate_named("fft_a").unwrap();
        // Bit for bit: identical positions (compared as bits) and an
        // identical LEF/DEF serialization of everything else.
        let bits = |d: &rdp_db::Design| -> Vec<(u64, u64)> {
            d.positions()
                .iter()
                .map(|p| (p.x.to_bits(), p.y.to_bits()))
                .collect()
        };
        assert_eq!(bits(&ours), bits(&canonical));
        assert_eq!(
            rdp_parse::write_lefdef(&ours),
            rdp_parse::write_lefdef(&canonical)
        );
    }

    #[test]
    fn seed_one_moves_cells_but_keeps_the_design_class() {
        let base = suite_entry("fft_a", 0).unwrap();
        let other = suite_entry("fft_a", 1).unwrap();
        assert_ne!(base.params.seed, other.params.seed);
        let a = rdp_gen::generate(base.name, &base.params);
        let b = rdp_gen::generate(other.name, &other.params);
        assert_eq!(a.num_cells(), b.num_cells());
        assert_eq!(a.movable_cells().count(), b.movable_cells().count());
        assert_ne!(a.positions(), b.positions());
    }

    #[test]
    fn every_workload_design_is_in_the_suite() {
        for w in WORKLOADS {
            for d in w.designs.iter().chain(SMOKE_DESIGNS) {
                assert!(suite_entry(d, 0).is_some(), "{}: {d}", w.name);
            }
        }
    }
}
