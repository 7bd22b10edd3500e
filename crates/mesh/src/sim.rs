//! The mesh engine: lockstep stepping of a coupled domain bank.
//!
//! A [`Mesh`] owns a [`DomainBank`] and a [`Topology`] and advances every
//! domain period by period through the bank's scalar
//! [`BankRunner`](adaptive_clock::bank::BankRunner) — the same stepping
//! strategy the scalar `DiscreteLoop` drives, which is what makes a
//! one-domain mesh bit-identical to it. Per period the engine runs two
//! passes:
//!
//! 1. **boundaries** — each live link reads the producer's RO length as
//!    of `delay + 1` periods ago (`delay` is the link CDN expressed in
//!    whole set-point periods; the extra period is the synchronizer's
//!    capture register), forms the *relative* skew against the consumer's
//!    current length, feeds the link's
//!    [`BoundaryMonitor`], and — unless
//!    the monitor has quarantined the link — accumulates
//!    `gain · skew` of coupling into the consumer;
//! 2. **domains** — every domain steps through the shared Fig. 4
//!    recurrence; the accumulated coupling rides on the domain's
//!    heterogeneous input. Domains with no in-links skip the coupling add
//!    *structurally* (no `+ 0.0`), preserving bit-identity with the
//!    uncoupled engines.
//!
//! Reading only periods `≤ n − 1` in pass 1 makes the result independent
//! of domain ordering, so the engine is deterministic by construction —
//! scenario injections ([`Scenario`]) are all seeded or explicit.

use adaptive_clock::bank::DomainBank;
use adaptive_clock::batch::BatchTrace;
use adaptive_clock::cdn::Cdn;
use clock_faults::{FaultEvent, FaultKind, FaultSchedule};
use clock_metrics::{violation_report, BoundaryMonitor, BoundaryReport, ViolationReport};
use clock_telemetry::Telemetry;

use crate::topology::Topology;
use crate::MeshError;

/// What the mesh is subjected to during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// No injected disturbance (static per-domain variation still
    /// applies).
    Nominal,
    /// Domain `domain` permanently loses `stages` RO stages at period
    /// `at` — a hard local failure the domain's own loop compensates,
    /// which drags its operating point away from its neighbours' until
    /// the boundaries quarantine it.
    DomainFailure {
        /// The failing domain.
        domain: usize,
        /// Failure period.
        at: u64,
        /// RO stages lost (permanently).
        stages: f64,
    },
    /// Domain `domain` turns Byzantine at period `at`: it advertises
    /// deterministic garbage lengths to every boundary it feeds *and*
    /// suffers a seeded SEU strike plan internally. Healthy neighbours
    /// must quarantine it and re-lock.
    Byzantine {
        /// The faulty domain.
        domain: usize,
        /// First Byzantine period.
        at: u64,
        /// Seed for the internal strike plan and the advertised garbage.
        seed: u64,
    },
    /// A global supply droop: every domain's homogeneous variation drops
    /// by `droop` stages for `duration` periods starting at `at`, then
    /// recovers — the whole mesh must re-lock.
    PowerEvent {
        /// Droop onset period.
        at: u64,
        /// Droop depth in stages (positive = slower gates).
        droop: f64,
        /// Droop duration in periods.
        duration: u64,
    },
}

impl Scenario {
    /// Stable kebab-case label (table rows, cache keys).
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::Nominal => "nominal",
            Scenario::DomainFailure { .. } => "domain-failure",
            Scenario::Byzantine { .. } => "byzantine",
            Scenario::PowerEvent { .. } => "power-event",
        }
    }
}

/// Deterministic garbage a Byzantine domain advertises at read index `i`.
fn byzantine_word(i: i64, setpoint: f64, seed: u64) -> f64 {
    let x = (i as u64)
        .wrapping_add(seed)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // setpoint·1.5 ± a couple of stages of wobble: far enough off any
    // plausible operating point to blow the boundary tolerance, varied
    // enough that it cannot be mistaken for a re-locked neighbour.
    setpoint * 1.5 + ((x >> 58) as f64) / 4.0 - 8.0
}

/// One domain's outcome of a mesh run.
#[derive(Debug, Clone)]
pub struct DomainOutcome {
    /// The domain's `τ[n]`, `δ[n]` and `l_RO[n]`, as a one-lane trace.
    pub trace: BatchTrace,
    /// Violation / re-lock accounting against the mesh's margin policy.
    pub report: ViolationReport,
}

/// One directed link's outcome of a mesh run.
#[derive(Debug, Clone, Copy)]
pub struct BoundaryOutcome {
    /// Producer domain.
    pub from: usize,
    /// Consumer domain.
    pub to: usize,
    /// The link's boundary statistics.
    pub report: BoundaryReport,
}

/// The recorded outcome of one [`Mesh::run`].
#[derive(Debug, Clone)]
pub struct MeshRun {
    /// Per-domain traces and reports, indexed like the bank.
    pub domains: Vec<DomainOutcome>,
    /// Per-link boundary reports, indexed like the topology's links.
    pub boundaries: Vec<BoundaryOutcome>,
    /// Total handshake violations across all links.
    pub boundary_violations: u64,
    /// Fault events injected into the bank's domains before the horizon.
    pub injected: u64,
    /// Watchdog re-lock events across the bank's hardened domains.
    pub relocks: u64,
}

impl MeshRun {
    /// Number of links the quarantine policy cut off.
    pub fn quarantined_links(&self) -> usize {
        self.boundaries
            .iter()
            .filter(|b| b.report.quarantined_at.is_some())
            .count()
    }

    /// Whether every link fed by domain `d` ended quarantined (and there
    /// was at least one) — the mesh's definition of "domain `d` is
    /// contained".
    pub fn is_contained(&self, d: usize) -> bool {
        let mut any = false;
        for b in &self.boundaries {
            if b.from == d {
                any = true;
                if b.report.quarantined_at.is_none() {
                    return false;
                }
            }
        }
        any
    }
}

/// Deployed safety margin (stages) of the per-domain violation accounting.
const MARGIN: f64 = 6.0;
/// Lock tolerance (stages) of the per-domain violation accounting.
const LOCK_TOLERANCE: f64 = 2.0;
/// Consecutive in-tolerance periods that count as re-locked.
const LOCK_RUN: usize = 20;

/// A multi-domain GALS clock mesh (see the module docs).
#[derive(Debug)]
pub struct Mesh {
    bank: DomainBank,
    topo: Topology,
    telemetry: Telemetry,
    setpoint: f64,
    coupling: f64,
    tolerance: f64,
    sync_window: f64,
    quarantine_after: usize,
}

impl Mesh {
    /// A mesh of `bank`'s domains wired by `topo`, all regulating toward
    /// `setpoint` stages.
    ///
    /// # Errors
    ///
    /// [`MeshError::DomainCountMismatch`] unless the bank and topology
    /// agree on the number of domains.
    pub fn new(bank: DomainBank, topo: Topology, setpoint: f64) -> Result<Self, MeshError> {
        if bank.len() != topo.domains() {
            return Err(MeshError::DomainCountMismatch {
                bank: bank.len(),
                topology: topo.domains(),
            });
        }
        Ok(Mesh {
            bank,
            topo,
            telemetry: Telemetry::disabled(),
            setpoint,
            coupling: 0.05,
            tolerance: 8.0,
            sync_window: 2.0,
            quarantine_after: 3,
        })
    }

    /// Attach an instrumentation handle (spans `engine.mesh`, counters
    /// `mesh.domains` / `mesh.boundary_violations`).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Set the coupling gain: stages of heterogeneous perturbation per
    /// stage of boundary skew.
    #[must_use]
    pub fn with_coupling(mut self, gain: f64) -> Self {
        self.coupling = gain;
        self
    }

    /// Configure the boundary monitors: capture `tolerance` (stages),
    /// synchronizer resolution `window` (stages), and the quarantine
    /// threshold in consecutive violations (`0` disables quarantine).
    #[must_use]
    pub fn with_boundary(mut self, tolerance: f64, window: f64, quarantine_after: usize) -> Self {
        self.tolerance = tolerance;
        self.sync_window = window;
        self.quarantine_after = quarantine_after;
        self
    }

    /// The domain bank (per-domain step counters live here).
    pub fn bank(&self) -> &DomainBank {
        &self.bank
    }

    /// Mutable access to the bank (variation, faults, hardening).
    pub fn bank_mut(&mut self) -> &mut DomainBank {
        &mut self.bank
    }

    /// The link graph.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Reset every domain's controller (lifetime step counters survive).
    pub fn reset(&mut self) {
        self.bank.reset();
    }

    /// Run `steps` periods under `scenario` and record every domain and
    /// boundary.
    pub fn run(&mut self, scenario: &Scenario, steps: usize) -> MeshRun {
        let ndom = self.bank.len();
        let links = self.topo.links().to_vec();
        let mut span = self.telemetry.scope("engine.mesh");
        span.attr("steps", steps);
        span.attr("domains", ndom);
        span.attr("links", links.len());
        self.telemetry.counter("mesh.domains").add(ndom as u64);

        // Compose the scenario's strike plan into the affected domain's
        // schedule for the duration of the run; restored afterwards so a
        // mesh can be re-run (or run under another scenario) cleanly.
        let mut saved: Option<(usize, FaultSchedule)> = None;
        match *scenario {
            Scenario::DomainFailure { domain, at, stages } => {
                let mut composed = self.bank.faults(domain).clone();
                composed.push(FaultEvent {
                    at,
                    duration: 1, // permanent: RO stage failures never heal
                    kind: FaultKind::RoStageFailure { stages },
                });
                saved = Some((domain, self.bank.faults(domain).clone()));
                self.bank.set_faults(domain, composed);
            }
            Scenario::Byzantine { domain, at, seed } => {
                let mut composed = self.bank.faults(domain).clone();
                for k in 0..3u64 {
                    composed.push(FaultEvent {
                        at: at + 350 * k,
                        duration: 1,
                        kind: FaultKind::SeuLroWord {
                            bit: 3 + ((seed >> (8 * k)) % 16) as u32,
                        },
                    });
                }
                saved = Some((domain, self.bank.faults(domain).clone()));
                self.bank.set_faults(domain, composed);
            }
            Scenario::Nominal | Scenario::PowerEvent { .. } => {}
        }

        let byz = match *scenario {
            Scenario::Byzantine { domain, at, seed } => Some((domain, at as i64, seed)),
            _ => None,
        };
        let e_at = |i: i64| -> f64 {
            if let Scenario::PowerEvent {
                at,
                droop,
                duration,
            } = *scenario
            {
                if i >= at as i64 && i < (at + duration) as i64 {
                    return -droop;
                }
            }
            0.0
        };

        let mm: Vec<i64> = (0..ndom).map(|d| (self.bank.m(d) + 2) as i64).collect();
        let vars: Vec<f64> = (0..ndom).map(|d| self.bank.variation(d)).collect();
        let has_in: Vec<bool> = (0..ndom).map(|d| self.topo.in_degree(d) > 0).collect();
        let delays: Vec<i64> = links
            .iter()
            .map(|l| l.cdn.whole_periods_at(self.setpoint) as i64)
            .collect();
        let mut monitors: Vec<BoundaryMonitor> = links
            .iter()
            .map(|_| BoundaryMonitor::new(self.tolerance, self.sync_window, self.quarantine_after))
            .collect();

        let setpoint = self.setpoint;
        let coupling = self.coupling;
        let mut traces: Vec<BatchTrace> =
            (0..ndom).map(|_| BatchTrace::single_lane(steps)).collect();
        let mut inject = vec![0.0f64; ndom];
        let mut boundary_violations = 0u64;

        let mut runner = self.bank.runner();
        for n in 0..steps as i64 {
            // Pass 1: boundaries. Reading only periods ≤ n − 1 keeps the
            // outcome independent of the domain step order below.
            for (l, link) in links.iter().enumerate() {
                if monitors[l].quarantined() {
                    continue;
                }
                let i = n - 1 - delays[l];
                let advertised = match byz {
                    Some((bd, bat, seed)) if link.from == bd && i >= bat => {
                        byzantine_word(i, setpoint, seed)
                    }
                    _ => runner.lro(link.from, i),
                };
                let skew = advertised - runner.lro(link.to, n - 1);
                if monitors[l].observe(n as u64, skew) {
                    boundary_violations += 1;
                }
                if !monitors[l].quarantined() {
                    inject[link.to] += coupling * skew;
                }
            }
            // Pass 2: step every domain through the shared recurrence.
            for d in 0..ndom {
                let gen = n - mm[d];
                let mut mu = vars[d];
                if has_in[d] {
                    // Structural skip above: a domain with no in-links
                    // never sees this add, keeping its bits identical to
                    // an uncoupled scalar run.
                    mu += inject[d];
                    inject[d] = 0.0;
                }
                let out = runner.step(d, n, setpoint, e_at(gen), e_at(n - 1), mu);
                traces[d].push(out.tau, out.delta, out.lro);
            }
        }
        let injected = runner.injected_before(steps as u64);
        let relocks = runner.relocks();
        drop(runner);

        if let Some((domain, schedule)) = saved {
            self.bank.set_faults(domain, schedule);
        }
        self.telemetry
            .counter("mesh.boundary_violations")
            .add(boundary_violations);

        let domains = traces
            .into_iter()
            .map(|trace| {
                let report =
                    violation_report(setpoint, &trace.tau, MARGIN, LOCK_TOLERANCE, LOCK_RUN);
                DomainOutcome { trace, report }
            })
            .collect();
        let boundaries = links
            .iter()
            .zip(&monitors)
            .map(|(link, mon)| BoundaryOutcome {
                from: link.from,
                to: link.to,
                report: mon.report(),
            })
            .collect();
        MeshRun {
            domains,
            boundaries,
            boundary_violations,
            injected,
            relocks,
        }
    }
}

/// A convenience used across the tests and the `ext-mesh` experiment: a
/// link CDN of one nominal set-point period.
pub fn unit_cdn(setpoint: f64) -> Cdn {
    Cdn::new(setpoint).expect("a positive set-point is a valid CDN delay")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use adaptive_clock::controller::{IirConfig, IntIirControl};
    use adaptive_clock::resilience::Resilience;
    use adaptive_clock::tdc::Quantization;

    const C: i64 = 64;

    fn hardened_bank(n: usize, spread: &[f64]) -> DomainBank {
        let mut bank = DomainBank::new();
        for d in 0..n {
            let ctrl = IntIirControl::new(IirConfig::paper(), C).unwrap();
            bank.push_with(
                1,
                ctrl,
                Quantization::Floor,
                FaultSchedule::default(),
                Resilience::hardened(C as f64),
            );
            bank.set_variation(d, spread[d % spread.len()]);
        }
        bank
    }

    fn ring_mesh(n: usize) -> Mesh {
        let topo = Topology::ring(n, unit_cdn(C as f64));
        Mesh::new(hardened_bank(n, &[0.0, 1.5, -2.0, 0.5]), topo, C as f64).unwrap()
    }

    #[test]
    fn nominal_ring_stays_locked_with_quiet_boundaries() {
        let mut mesh = ring_mesh(6);
        let run = mesh.run(&Scenario::Nominal, 800);
        assert_eq!(run.quarantined_links(), 0);
        assert_eq!(run.relocks, 0);
        for (d, out) in run.domains.iter().enumerate() {
            assert!(!out.report.unresolved, "domain {d} must end locked");
            assert_eq!(out.report.violations, 0, "domain {d}");
        }
        for b in &run.boundaries {
            assert!(b.report.worst_skew <= 4.0, "{} → {}", b.from, b.to);
        }
    }

    #[test]
    fn byzantine_neighbour_is_contained_and_rest_relock() {
        let mut mesh = ring_mesh(6);
        let scen = Scenario::Byzantine {
            domain: 2,
            at: 100,
            seed: 0xB12A,
        };
        let run = mesh.run(&scen, 1500);
        assert!(run.is_contained(2), "faulty domain must be quarantined");
        for (d, out) in run.domains.iter().enumerate() {
            if d != 2 {
                assert!(!out.report.unresolved, "healthy domain {d} must re-lock");
            }
        }
        assert!(run.boundary_violations > 0);
        // Deterministic: a fresh mesh reproduces the run bit for bit.
        let rerun = ring_mesh(6).run(&scen, 1500);
        for d in 0..6 {
            assert_eq!(
                run.domains[d].trace.tau, rerun.domains[d].trace.tau,
                "domain {d}"
            );
        }
        assert_eq!(run.boundary_violations, rerun.boundary_violations);
    }

    #[test]
    fn domain_failure_is_quarantined_once_compensation_skews_it() {
        let mut mesh = ring_mesh(5);
        let scen = Scenario::DomainFailure {
            domain: 0,
            at: 150,
            stages: 16.0,
        };
        let run = mesh.run(&scen, 1500);
        // The failed domain compensates internally (its own loop re-locks
        // at a longer RO), which drags its advertised length ~16 stages
        // off its neighbours' — past the 8-stage boundary tolerance.
        assert!(run.is_contained(0), "failed domain must be contained");
        assert!(run.injected >= 1);
        for (d, out) in run.domains.iter().enumerate() {
            assert!(!out.report.unresolved, "domain {d} must end locked");
        }
    }

    #[test]
    fn global_power_event_common_modes_out_and_relocks() {
        let mut mesh = ring_mesh(6);
        let run = mesh.run(
            &Scenario::PowerEvent {
                at: 200,
                droop: 10.0,
                duration: 120,
            },
            1200,
        );
        // The droop is homogeneous, the skew relative: no boundary may
        // quarantine, and every domain must re-lock after recovery.
        assert_eq!(run.quarantined_links(), 0);
        for (d, out) in run.domains.iter().enumerate() {
            assert!(!out.report.unresolved, "domain {d} must re-lock");
        }
    }

    #[test]
    fn mismatched_bank_and_topology_is_rejected() {
        let bank = hardened_bank(3, &[0.0]);
        let topo = Topology::ring(4, unit_cdn(C as f64));
        assert!(matches!(
            Mesh::new(bank, topo, C as f64),
            Err(MeshError::DomainCountMismatch {
                bank: 3,
                topology: 4
            })
        ));
    }

    #[test]
    fn mesh_telemetry_counts_domains_and_violations() {
        let t = Telemetry::enabled();
        let topo = Topology::ring(4, unit_cdn(C as f64));
        let mut mesh = Mesh::new(hardened_bank(4, &[0.0, 1.0]), topo, C as f64)
            .unwrap()
            .with_telemetry(t.clone());
        let run = mesh.run(
            &Scenario::Byzantine {
                domain: 1,
                at: 50,
                seed: 7,
            },
            600,
        );
        let snap = t.snapshot();
        assert_eq!(snap.counter("mesh.domains"), Some(4));
        assert_eq!(
            snap.counter("mesh.boundary_violations"),
            Some(run.boundary_violations)
        );
        // Per-domain step counters credit the mesh run.
        for d in 0..4 {
            assert_eq!(mesh.bank().steps(d), 600);
        }
    }
}
