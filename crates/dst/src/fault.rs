//! The fault plan DSL: what goes wrong, and where.
//!
//! A [`FaultPlan`] is a small list of [`Fault`]s with a textual syntax
//! (`panic@7,slow:2`) so a failing plan can be printed, pasted and
//! replayed. Plans are either written by hand in a test or expanded
//! from a seed by [`FaultPlan::random`] — the latter is what the sweep
//! harness uses, so a single `STREAMSIM_DST_SEED` determines both the
//! schedule *and* the injected faults.
//!
//! Faults split by who consumes them:
//!
//! * scheduling faults (`slow:W`, `starve:W`) bias the
//!   [`crate::SimExecutor`]'s choice of which worker steps next;
//! * the payload fault (`panic@K`) is consulted by the code under test
//!   through a cheap-clone [`FaultContext`] handle.

use std::fmt;
use std::sync::Arc;

use streamsim_prng::Rng;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fault {
    /// The mapped closure panics when it processes input item `item`
    /// (syntax `panic@ITEM`). Consulted via [`FaultContext::maybe_panic`].
    PanicOnItem {
        /// Zero-based input index the panic fires on.
        item: usize,
    },
    /// Worker `worker` is scheduled only when no other worker is
    /// runnable (syntax `slow:WORKER`) — the virtual-time analogue of a
    /// descheduled or overloaded thread.
    SlowWorker {
        /// Worker index to deprioritize.
        worker: usize,
    },
    /// Worker `worker` hogs the scheduler while runnable (syntax
    /// `starve:WORKER`), starving every other worker of queue items —
    /// the opposite extreme of `slow`.
    Starvation {
        /// Worker index that monopolizes scheduling.
        worker: usize,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::PanicOnItem { item } => write!(f, "panic@{item}"),
            Fault::SlowWorker { worker } => write!(f, "slow:{worker}"),
            Fault::Starvation { worker } => write!(f, "starve:{worker}"),
        }
    }
}

/// A parse failure from [`FaultPlan::parse`], carrying the offending
/// clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanParseError(String);

impl fmt::Display for FaultPlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault clause {:?}: expected panic@ITEM, slow:WORKER or starve:WORKER, \
             comma-separated (or \"none\")",
            self.0
        )
    }
}

impl std::error::Error for FaultPlanParseError {}

/// An ordered list of faults to inject into one DST run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: nothing goes wrong.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with exactly these faults.
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultPlan { faults }
    }

    /// The faults in this plan.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parses the textual syntax produced by `Display`:
    /// comma-separated clauses, e.g. `panic@7,slow:2,starve:0`.
    /// The empty string and `none` parse to the empty plan.
    pub fn parse(text: &str) -> Result<Self, FaultPlanParseError> {
        let text = text.trim();
        if text.is_empty() || text == "none" {
            return Ok(FaultPlan::none());
        }
        let mut faults = Vec::new();
        for clause in text.split(',') {
            let clause = clause.trim();
            let parsed = clause
                .strip_prefix("panic@")
                .map(|n| (n, 0))
                .or_else(|| clause.strip_prefix("slow:").map(|n| (n, 1)))
                .or_else(|| clause.strip_prefix("starve:").map(|n| (n, 2)));
            let (number, kind) = parsed.ok_or_else(|| FaultPlanParseError(clause.to_string()))?;
            let n: usize = number
                .parse()
                .map_err(|_| FaultPlanParseError(clause.to_string()))?;
            faults.push(match kind {
                0 => Fault::PanicOnItem { item: n },
                1 => Fault::SlowWorker { worker: n },
                _ => Fault::Starvation { worker: n },
            });
        }
        Ok(FaultPlan::new(faults))
    }

    /// Expands a random plan from `rng`, sized for a run over `items`
    /// input items and `workers` workers.
    ///
    /// Roughly a quarter of plans are empty (the fault-free baseline
    /// must stay represented in every sweep), half inject one fault and
    /// the rest two. Drawing from the shared run RNG keeps the whole
    /// run — schedule, faults, everything — a pure function of the seed.
    pub fn random<R: Rng>(rng: &mut R, items: usize, workers: usize) -> Self {
        let count = match rng.gen_range(0u32..4) {
            0 => 0,
            1 | 2 => 1,
            _ => 2,
        };
        let mut faults = Vec::new();
        for _ in 0..count {
            faults.push(match rng.gen_range(0u32..3) {
                0 => Fault::PanicOnItem {
                    item: rng.gen_range(0..items.max(1)),
                },
                1 => Fault::SlowWorker {
                    worker: rng.gen_range(0..workers.max(1)),
                },
                _ => Fault::Starvation {
                    worker: rng.gen_range(0..workers.max(1)),
                },
            });
        }
        FaultPlan::new(faults)
    }

    /// The workers deprioritized by `slow:` faults.
    pub fn slow_workers(&self) -> impl Iterator<Item = usize> + '_ {
        self.faults.iter().filter_map(|f| match f {
            Fault::SlowWorker { worker } => Some(*worker),
            _ => None,
        })
    }

    /// The first worker (if any) that a `starve:` fault lets hog the
    /// scheduler.
    pub fn starving_worker(&self) -> Option<usize> {
        self.faults.iter().find_map(|f| match f {
            Fault::Starvation { worker } => Some(*worker),
            _ => None,
        })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.faults.is_empty() {
            return write!(f, "none");
        }
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

/// A cheap-clone handle the code under test consults for the payload
/// fault (`panic@`). Scheduling faults are interpreted
/// by the [`crate::SimExecutor`] instead and never reach the workload.
#[derive(Debug, Clone)]
pub struct FaultContext {
    plan: Arc<FaultPlan>,
}

impl FaultContext {
    /// A context over `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultContext {
            plan: Arc::new(plan),
        }
    }

    /// The plan this context serves.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether a `panic@item` fault is armed for this input index.
    pub fn panics_on(&self, item: usize) -> bool {
        self.plan
            .faults
            .iter()
            .any(|f| matches!(f, Fault::PanicOnItem { item: k } if *k == item))
    }

    /// Panics with a recognizable payload if a `panic@item` fault is
    /// armed for this input index; otherwise does nothing. Call from
    /// the mapped closure (or a faulty workload wrapper) with the index
    /// of the item being processed.
    pub fn maybe_panic(&self, item: usize) {
        if self.panics_on(item) {
            panic!("dst: injected panic at item {item}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamsim_prng::quickcheck::check;
    use streamsim_prng::Xoshiro256StarStar;

    #[test]
    fn display_parse_roundtrip() {
        let plan = FaultPlan::new(vec![
            Fault::PanicOnItem { item: 7 },
            Fault::SlowWorker { worker: 2 },
            Fault::Starvation { worker: 0 },
        ]);
        let text = plan.to_string();
        assert_eq!(text, "panic@7,slow:2,starve:0");
        assert_eq!(FaultPlan::parse(&text).unwrap(), plan);
    }

    #[test]
    fn empty_plan_roundtrip() {
        assert_eq!(FaultPlan::none().to_string(), "none");
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("  ").unwrap(), FaultPlan::none());
    }

    #[test]
    fn whitespace_between_clauses_is_tolerated() {
        let plan = FaultPlan::parse(" panic@1 , slow:0 ").unwrap();
        assert_eq!(
            plan.faults(),
            &[
                Fault::PanicOnItem { item: 1 },
                Fault::SlowWorker { worker: 0 }
            ]
        );
    }

    #[test]
    fn bad_clauses_are_rejected_with_the_clause() {
        for bad in ["panic@", "panic@x", "slow@1", "starve", "boom"] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(err.to_string().contains("bad fault clause"), "{err}");
        }
    }

    #[test]
    fn random_plans_are_seed_deterministic_and_bounded() {
        let draw = |seed: u64| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            FaultPlan::random(&mut rng, 20, 4)
        };
        let mut empties = 0;
        for seed in 0..200u64 {
            let plan = draw(seed);
            assert_eq!(plan, draw(seed), "seed {seed} not deterministic");
            assert!(plan.faults().len() <= 2);
            if plan.is_empty() {
                empties += 1;
            }
            for fault in plan.faults() {
                match *fault {
                    Fault::PanicOnItem { item } => assert!(item < 20),
                    Fault::SlowWorker { worker } | Fault::Starvation { worker } => {
                        assert!(worker < 4)
                    }
                }
            }
        }
        // ~25% of plans should be empty; demand the baseline is present.
        assert!(empties > 20, "only {empties}/200 fault-free plans");
    }

    /// `parse` returns `Ok` or `Err` on arbitrary text, never panics:
    /// fragments of the syntax glued at random, with stray characters.
    #[test]
    fn arbitrary_text_never_panics_the_parser() {
        // Syntax fragments, with numbers past `usize::MAX` mixed in.
        let fragments: Vec<&str> =
            "panic@|slow:|starve:|none|,| |@|:|7|0|-1|99999999999999999999999|é"
                .split('|')
                .collect();
        check("fault_plan_parse_never_panics", |g| {
            let text = g
                .vec(0usize..12, |g| {
                    if g.gen_bool(0.9) {
                        g.pick(&fragments).to_owned()
                    } else {
                        char::from_u32(g.gen_range(0u32..0x80))
                            .unwrap_or('?')
                            .to_string()
                    }
                })
                .concat();
            let _ = FaultPlan::parse(&text);
        });
    }

    /// Every plan `FaultPlan::random` draws round-trips through its
    /// textual form.
    #[test]
    fn random_plans_round_trip_through_display() {
        check("fault_plan_display_round_trip", |g| {
            let items = g.gen_range(0usize..1000);
            let workers = g.gen_range(0usize..16);
            let plan = FaultPlan::random(&mut **g, items, workers);
            assert_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan));
        });
    }

    #[test]
    fn context_answers_payload_faults() {
        let ctx = FaultContext::new(FaultPlan::parse("panic@2").unwrap());
        assert!(ctx.panics_on(2));
        assert!(!ctx.panics_on(1));
        ctx.maybe_panic(0); // no-op
        let err = std::panic::catch_unwind(|| ctx.maybe_panic(2)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert_eq!(msg, "dst: injected panic at item 2");
    }

    #[test]
    fn scheduling_fault_accessors() {
        let plan = FaultPlan::parse("slow:3,starve:1,slow:0").unwrap();
        assert_eq!(plan.slow_workers().collect::<Vec<_>>(), vec![3, 0]);
        assert_eq!(plan.starving_worker(), Some(1));
        assert_eq!(FaultPlan::none().starving_worker(), None);
    }
}
