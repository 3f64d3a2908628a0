//! Typed simulation events and their classification axes.

/// Why the adaptive kernel executed a fine `dt` step instead of a
/// closed-form stride.
///
/// The first four reasons are *refusals*: a fast path was eligible and
/// tried (or would have tried) to stride but could not. The last four
/// are *structural*: the engine state makes fine stepping inherent, so
/// no stride was ever attempted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FallbackReason {
    /// A controller poll would finish inside the comparator's ±20 mV
    /// guard band, where the combined-capacitor closed form cannot
    /// resolve the LLB microstate (the REACT near-threshold plateau).
    GuardBand,
    /// The buffer's present topology has no closed form (un-equalized
    /// banks/chains, quantized integration refused a segment).
    NoClosedForm,
    /// The kernel invariant guard tripped: the rail voltage or harvest
    /// power is non-finite, so the engine degrades to guarded fine
    /// stepping instead of propagating the NaN.
    NanGuard,
    /// Accumulated poll-service debt from software overhead must be
    /// serviced before the next sleep stride.
    PollDebt,
    /// A discrete transition is due now or within one step: a gate
    /// enable crossing at boot, a wake hint that is immediate, stale,
    /// already energy-satisfied, or deadline-due.
    TransitionDue,
    /// The remaining stride window is shorter than the coarse-stride
    /// floor (`MIN_COARSE_STRIDE`, and never less than `2·dt`), e.g.
    /// short environment-trace segments.
    ShortStride,
    /// The fast path is switched off: fixed-`dt` reference kernel, or
    /// a buffer that does not support the closed form for this regime.
    FastPathOff,
    /// The MCU is actively executing a workload that has not declared
    /// its demand steady (`WakeHint::Steady`), or is booting: each step
    /// may change the demand, so fine stepping is inherent, not a
    /// fallback. (A steady workload's covered steps are replayed in
    /// bulk by an active stride.) A refused active stride carries its
    /// own reason instead.
    McuActive,
    /// The invariant auditor tripped on a committed stride and
    /// permanently degraded this regime's fast path to fine stepping
    /// for the rest of the run.
    AuditDegraded,
}

impl FallbackReason {
    /// Every reason, in stable presentation/merge order.
    pub const ALL: [FallbackReason; Self::COUNT] = [
        FallbackReason::GuardBand,
        FallbackReason::NoClosedForm,
        FallbackReason::NanGuard,
        FallbackReason::PollDebt,
        FallbackReason::TransitionDue,
        FallbackReason::ShortStride,
        FallbackReason::FastPathOff,
        FallbackReason::McuActive,
        FallbackReason::AuditDegraded,
    ];

    /// Number of distinct reasons.
    pub const COUNT: usize = 9;

    /// Stable index into [`FallbackReason::ALL`].
    pub fn index(self) -> usize {
        match self {
            FallbackReason::GuardBand => 0,
            FallbackReason::NoClosedForm => 1,
            FallbackReason::NanGuard => 2,
            FallbackReason::PollDebt => 3,
            FallbackReason::TransitionDue => 4,
            FallbackReason::ShortStride => 5,
            FallbackReason::FastPathOff => 6,
            FallbackReason::McuActive => 7,
            FallbackReason::AuditDegraded => 8,
        }
    }

    /// Short kebab-case label used in tables and trace names.
    pub fn label(self) -> &'static str {
        match self {
            FallbackReason::GuardBand => "guard-band",
            FallbackReason::NoClosedForm => "no-closed-form",
            FallbackReason::NanGuard => "nan-guard",
            FallbackReason::PollDebt => "poll-debt",
            FallbackReason::TransitionDue => "transition-due",
            FallbackReason::ShortStride => "short-stride",
            FallbackReason::FastPathOff => "fast-path-off",
            FallbackReason::McuActive => "mcu-active",
            FallbackReason::AuditDegraded => "audit-degraded",
        }
    }
}

/// The engine regime a step or stride was taken in, classified from
/// the state at step entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Regime {
    /// Gate open, MCU unpowered: the buffer is charging toward the
    /// enable threshold.
    Idle,
    /// Gate closed, MCU in LPM3 sleep between workload wakes.
    Sleep,
    /// Gate closed, MCU executing (or in a boot/brown-out transient).
    Active,
}

impl Regime {
    /// Every regime, in stable presentation/merge order.
    pub const ALL: [Regime; Self::COUNT] = [Regime::Idle, Regime::Sleep, Regime::Active];

    /// Number of regimes.
    pub const COUNT: usize = 3;

    /// Stable index into [`Regime::ALL`].
    pub fn index(self) -> usize {
        match self {
            Regime::Idle => 0,
            Regime::Sleep => 1,
            Regime::Active => 2,
        }
    }

    /// Lower-case label used in tables and trace names.
    pub fn label(self) -> &'static str {
        match self {
            Regime::Idle => "idle",
            Regime::Sleep => "sleep",
            Regime::Active => "active",
        }
    }
}

/// Which closed-form fast path produced a coarse stride.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrideKind {
    /// MCU-off charge integration up to the enable threshold.
    Idle,
    /// LPM3 sleep integration up to wake or brown-out.
    Powered,
    /// MCU-active integration under a workload's steady demand, up to
    /// the source window, a probe, a fault event or brown-out.
    Active,
}

impl StrideKind {
    /// The regime a stride of this kind covers.
    pub fn regime(self) -> Regime {
        match self {
            StrideKind::Idle => Regime::Idle,
            StrideKind::Powered => Regime::Sleep,
            StrideKind::Active => Regime::Active,
        }
    }

    /// Short label used in tables and trace names.
    pub fn label(self) -> &'static str {
        match self {
            StrideKind::Idle => "idle-stride",
            StrideKind::Powered => "sleep-stride",
            StrideKind::Active => "active-stride",
        }
    }
}

/// What happened. Span-like kinds (`CoarseStride`, `FineSpan`,
/// implicit backoff windows) cover `[t, t + span)`; the rest are
/// instants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// One closed-form stride committed by a fast path.
    CoarseStride {
        /// Which fast path produced the stride.
        kind: StrideKind,
    },
    /// A coalesced run of consecutive fine `dt` steps sharing one
    /// (regime, reason) classification.
    FineSpan {
        /// Regime at entry to each step of the span.
        regime: Regime,
        /// Why the steps were fine instead of coarse.
        reason: FallbackReason,
        /// Number of engine steps coalesced into the span.
        steps: u64,
    },
    /// The gate closed: the MCU booted.
    Boot,
    /// The gate opened below the brown-out threshold: power lost.
    BrownOut,
    /// The buffer controller reconfigured its topology.
    Reconfig {
        /// True when triggered by the defense layer at boot, false for
        /// the controller's own policy decisions.
        defensive: bool,
    },
    /// The attack detector flagged an implausible outage interval.
    Detection,
    /// The defense entered a backoff hold (wakes suppressed).
    BackoffHold,
    /// The backoff hold released (timer expired with energy recovered,
    /// or cancelled by a brown-out).
    BackoffRelease,
    /// A scheduled or stochastic hardware-drift fault fired mid-run.
    FaultInjected {
        /// Kebab-case label of the fault kind from the circuit taxonomy
        /// (capacitance fade, leakage growth, comparator offset, stuck
        /// switch, harvester derate).
        label: &'static str,
    },
    /// The invariant auditor detected a cross-check divergence on a
    /// committed stride and degraded the regime's fast path.
    AuditTrip {
        /// Regime whose fast path was degraded.
        regime: Regime,
    },
}

/// One telemetry event: a kind stamped with sim-time and the simulated
/// span it covers (zero for instants).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimEvent {
    /// Simulation time of the event (span start for span-like kinds),
    /// in seconds.
    pub t: f64,
    /// Simulated seconds covered; `0.0` for instantaneous events.
    pub span: f64,
    /// What happened.
    pub kind: EventKind,
}
