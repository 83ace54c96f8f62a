//! Seeded, deterministic exponential backoff with jitter.
//!
//! The fixed-interval retry timers the stacks started with are exactly the
//! congestive-collapse mechanism `BENCH_6.json` recorded: every tick re-drives
//! *every* pending transaction, so once the work added per tick exceeds the
//! work the cluster can absorb per tick, the backlog grows without bound. A
//! [`BackoffPolicy`] replaces the fixed interval with a capped exponential
//! schedule, and decorrelates retry cohorts with deterministic jitter: the
//! jitter fraction is a pure hash of `(salt, attempt)`, so a simulated run is
//! bit-identical for a given seed (no RNG is consulted) while two
//! transactions that started together stop retrying in lockstep.
//!
//! The policy is pure arithmetic over [`SimDuration`]s and is therefore
//! backend-agnostic: the simulator checks deadlines against virtual time, the
//! threaded runtime against the wall clock, both through the same
//! `Context::set_timer` seam.
//!
//! [`SafetyNet`] is the periodic tick that drives those retries: armed while
//! work is outstanding, cancelled when none is.

use crate::actor::{Context, TimerId, TimerTag};
use crate::time::SimDuration;

/// A capped exponential-backoff schedule with deterministic jitter.
///
/// `delay(attempt, salt)` is `base * multiplier^attempt`, capped at `max`,
/// then jittered by up to ±`jitter_pct`% using a hash of `(salt, attempt)`.
/// Attempt 0 always returns exactly `base` (no jitter): the *first* retry of
/// a transaction keeps the legacy fixed-interval timing, so healthy runs that
/// retry at most once are schedule-identical to the pre-backoff code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Upper bound on the (pre-jitter) delay.
    pub max: SimDuration,
    /// Growth factor per attempt (1 = fixed interval).
    pub multiplier: u32,
    /// Jitter amplitude in percent of the delay (0 = none).
    pub jitter_pct: u32,
}

impl BackoffPolicy {
    /// A fixed-interval schedule: every retry waits exactly `interval`
    /// (the legacy behaviour, used when flow control is disabled).
    pub fn fixed(interval: SimDuration) -> Self {
        BackoffPolicy {
            base: interval,
            max: interval,
            multiplier: 1,
            jitter_pct: 0,
        }
    }

    /// The default retry schedule of the flow-control layer: 20 ms doubling
    /// to a 320 ms cap, ±25% jitter from the second attempt on.
    pub fn exponential() -> Self {
        BackoffPolicy {
            base: SimDuration::from_millis(20),
            max: SimDuration::from_millis(320),
            multiplier: 2,
            jitter_pct: 25,
        }
    }

    /// The delay before retry number `attempt` (0-based). Deterministic in
    /// `(self, attempt, salt)`; see the type docs for the schedule.
    pub fn delay(&self, attempt: u32, salt: u64) -> SimDuration {
        let base = self.base.as_micros().max(1);
        let max = self.max.as_micros().max(base);
        let mut micros = base;
        if self.multiplier > 1 {
            for _ in 0..attempt.min(63) {
                micros = micros.saturating_mul(u64::from(self.multiplier));
                if micros >= max {
                    break;
                }
            }
        }
        micros = micros.min(max);
        if attempt > 0 && self.jitter_pct > 0 {
            // Jitter in [-jitter_pct, +jitter_pct]% from a pure hash, so the
            // schedule is seeded by the salt rather than by a shared RNG.
            let h = splitmix64(salt ^ (u64::from(attempt) << 32) ^ 0x9e37_79b9_7f4a_7c15);
            let span = micros * u64::from(self.jitter_pct) / 100;
            if span > 0 {
                let offset = h % (2 * span + 1);
                micros = micros - span + offset;
            }
        }
        SimDuration::from_micros(micros.max(1))
    }
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy::exponential()
    }
}

/// Per-retry-source bookkeeping: which attempt is next and when it is due.
///
/// The owner checks `due(now)` on its (coarse, fixed-interval) retry tick and
/// calls [`BackoffState::fired`] after re-driving, which schedules the next
/// attempt per the policy. [`BackoffState::reset`] is called on progress, so
/// a source that starts making headway returns to the fast schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackoffState {
    /// Retries fired since the last reset.
    pub attempt: u32,
    /// Virtual (or wall-clock-mapped) time before which the next retry must
    /// not fire, as microseconds since the time origin.
    pub next_micros: u64,
}

impl BackoffState {
    /// A fresh state whose first retry is due `policy.delay(0, salt)` after
    /// `now_micros`.
    pub fn armed(policy: &BackoffPolicy, salt: u64, now_micros: u64) -> Self {
        BackoffState {
            attempt: 0,
            next_micros: now_micros + policy.delay(0, salt).as_micros(),
        }
    }

    /// `true` if the next retry is due at `now_micros`.
    pub fn due(&self, now_micros: u64) -> bool {
        now_micros >= self.next_micros
    }

    /// Records that a retry fired at `now_micros` and schedules the next one.
    pub fn fired(&mut self, policy: &BackoffPolicy, salt: u64, now_micros: u64) {
        self.attempt = self.attempt.saturating_add(1);
        self.next_micros = now_micros + policy.delay(self.attempt, salt).as_micros();
    }

    /// Progress was made: return to the fast schedule.
    pub fn reset(&mut self, policy: &BackoffPolicy, salt: u64, now_micros: u64) {
        *self = BackoffState::armed(policy, salt, now_micros);
    }
}

/// A retry safety net: one periodic timer that is armed while its owner has
/// work outstanding and cancelled as soon as it has none.
///
/// Every stack keeps such a timer (the coordinator retry tick, the baseline
/// TM retry tick, the Paxos retransmit tick) so a lost message is eventually
/// re-driven. A timer left armed after the last decision does nothing when
/// it fires, but it holds an engine open: a threaded `run_to_quiescence`
/// waits for it. [`SafetyNet::disarm`] cancels it and remembers its
/// deadline; a later [`SafetyNet::arm`] reuses that deadline while it is
/// still ahead, so in the simulator a retry fires at the same virtual time
/// as if the timer had never been cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SafetyNet {
    /// The armed timer, if any.
    armed: Option<TimerId>,
    /// Deadline of the armed (or last cancelled) timer, in microseconds
    /// since the time origin; 0 once it fired or the owner restarted.
    deadline_micros: u64,
}

impl SafetyNet {
    /// The retry interval of every safety net.
    pub const INTERVAL: SimDuration = SimDuration::from_millis(20);

    /// Arms the timer with tag `tag` unless it is armed already. It fires at
    /// the deadline of the last cancelled timer if that is still ahead, else
    /// one full [`SafetyNet::INTERVAL`] from now.
    pub fn arm<M>(&mut self, tag: TimerTag, ctx: &mut Context<'_, M>) {
        if self.armed.is_some() {
            return;
        }
        let now = ctx.now().as_micros();
        if self.deadline_micros <= now {
            self.deadline_micros = now + Self::INTERVAL.as_micros();
        }
        let delay = SimDuration::from_micros(self.deadline_micros - now);
        self.armed = Some(ctx.set_timer(delay, tag));
    }

    /// Cancels the armed timer, keeping its deadline for the next
    /// [`SafetyNet::arm`].
    pub fn disarm<M>(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(id) = self.armed.take() {
            ctx.cancel_timer(id);
        }
    }

    /// Forgets the timer: call from the tick handler (it fired) and from
    /// `on_restart` (it died with the previous incarnation). The next
    /// [`SafetyNet::arm`] waits a full interval.
    pub fn reset(&mut self) {
        *self = SafetyNet::default();
    }
}

/// SplitMix64: a tiny, well-distributed integer hash (public domain
/// constants), used for jitter so no shared RNG state is consumed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Effect;
    use crate::metrics::Metrics;
    use crate::rdma::RdmaInbox;
    use crate::time::SimTime;
    use ratc_types::ProcessId;

    #[test]
    fn fixed_policy_never_grows_or_jitters() {
        let p = BackoffPolicy::fixed(SimDuration::from_millis(20));
        for attempt in 0..10 {
            assert_eq!(p.delay(attempt, 7), SimDuration::from_millis(20));
        }
    }

    #[test]
    fn first_attempt_is_exactly_base_and_growth_is_capped() {
        let p = BackoffPolicy::exponential();
        assert_eq!(p.delay(0, 99), p.base, "attempt 0 keeps legacy timing");
        let mut prev = p.delay(0, 99).as_micros();
        for attempt in 1..12 {
            let d = p.delay(attempt, 99).as_micros();
            // Never above cap + jitter span.
            let bound = p.max.as_micros() * (100 + u64::from(p.jitter_pct)) / 100;
            assert!(d <= bound, "attempt {attempt}: {d} > {bound}");
            // Grows (up to jitter) until the cap.
            if prev * 2 < p.max.as_micros() / 2 {
                assert!(d > prev, "attempt {attempt} did not grow: {d} <= {prev}");
            }
            prev = d;
        }
    }

    #[test]
    fn jitter_is_deterministic_and_salt_dependent() {
        let p = BackoffPolicy::exponential();
        assert_eq!(p.delay(3, 1), p.delay(3, 1), "same inputs, same delay");
        let distinct = (0..32u64)
            .map(|salt| p.delay(3, salt).as_micros())
            .collect::<std::collections::BTreeSet<_>>();
        assert!(
            distinct.len() > 8,
            "jitter decorrelates salts: {distinct:?}"
        );
    }

    #[test]
    fn state_walks_the_schedule_and_resets() {
        let p = BackoffPolicy::exponential();
        let mut s = BackoffState::armed(&p, 5, 1_000);
        assert!(!s.due(1_000));
        assert!(s.due(1_000 + p.base.as_micros()));
        let fire_at = s.next_micros;
        s.fired(&p, 5, fire_at);
        assert_eq!(s.attempt, 1);
        assert!(s.next_micros > fire_at + p.base.as_micros() / 2);
        s.reset(&p, 5, fire_at);
        assert_eq!(s.attempt, 0);
        assert_eq!(s.next_micros, fire_at + p.base.as_micros());
    }

    /// Runs `f` on a context at `now_micros` and returns the timer effects
    /// it buffered: `(delay, None)` for a set, `(0, Some(id))` for a cancel.
    fn with_ctx(
        now_micros: u64,
        next_timer: &mut u64,
        f: impl FnOnce(&mut Context<'_, ()>),
    ) -> Vec<(u64, Option<TimerId>)> {
        let mut metrics = Metrics::default();
        let mut inbox = RdmaInbox::default();
        let mut next_token = 0;
        let mut ctx = Context {
            self_id: ProcessId::new(1),
            now: SimTime::from_micros(now_micros),
            hops: 0,
            effects: Vec::new(),
            metrics: &mut metrics,
            inbox: &mut inbox,
            next_timer_id: next_timer,
            next_rdma_token: &mut next_token,
        };
        f(&mut ctx);
        ctx.effects
            .into_iter()
            .filter_map(|effect| match effect {
                Effect::SetTimer { delay, .. } => Some((delay.as_micros(), None)),
                Effect::CancelTimer { id } => Some((0, Some(id))),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn safety_net_rearm_keeps_the_cancelled_deadline() {
        let interval = SafetyNet::INTERVAL.as_micros();
        let mut next_timer = 0;
        let mut net = SafetyNet::default();
        let set = with_ctx(1_000, &mut next_timer, |ctx| net.arm(9, ctx));
        assert_eq!(set, vec![(interval, None)]);
        // Arming an armed net is a no-op.
        assert!(with_ctx(1_500, &mut next_timer, |ctx| net.arm(9, ctx)).is_empty());
        let cancel = with_ctx(4_000, &mut next_timer, |ctx| net.disarm(ctx));
        assert_eq!(cancel, vec![(0, Some(TimerId(0)))]);
        // Disarming a disarmed net is a no-op.
        assert!(with_ctx(4_500, &mut next_timer, |ctx| net.disarm(ctx)).is_empty());
        // Re-armed before the old deadline: fires at the original time.
        let rearm = with_ctx(9_000, &mut next_timer, |ctx| net.arm(9, ctx));
        assert_eq!(rearm, vec![(1_000 + interval - 9_000, None)]);
    }

    #[test]
    fn safety_net_rearm_after_the_deadline_waits_a_full_interval() {
        let interval = SafetyNet::INTERVAL.as_micros();
        let mut next_timer = 0;
        let mut net = SafetyNet::default();
        with_ctx(0, &mut next_timer, |ctx| net.arm(9, ctx));
        with_ctx(100, &mut next_timer, |ctx| net.disarm(ctx));
        // Exactly at the old deadline counts as passed.
        let rearm = with_ctx(interval, &mut next_timer, |ctx| net.arm(9, ctx));
        assert_eq!(rearm, vec![(interval, None)]);
    }

    #[test]
    fn safety_net_fired_and_restart_both_reset() {
        let interval = SafetyNet::INTERVAL.as_micros();
        let mut next_timer = 0;
        // The tick handler resets: the next arm waits a full interval.
        let mut net = SafetyNet::default();
        with_ctx(0, &mut next_timer, |ctx| net.arm(9, ctx));
        net.reset();
        assert!(with_ctx(interval, &mut next_timer, |ctx| net.disarm(ctx)).is_empty());
        let after_fire = with_ctx(interval, &mut next_timer, |ctx| net.arm(9, ctx));
        assert_eq!(after_fire, vec![(interval, None)]);
        // A restart forgets a cancelled deadline that is still ahead, and
        // a reset net has nothing to cancel.
        let mut net = SafetyNet::default();
        with_ctx(0, &mut next_timer, |ctx| net.arm(9, ctx));
        with_ctx(100, &mut next_timer, |ctx| net.disarm(ctx));
        net.reset();
        assert!(with_ctx(200, &mut next_timer, |ctx| net.disarm(ctx)).is_empty());
        let after_restart = with_ctx(200, &mut next_timer, |ctx| net.arm(9, ctx));
        assert_eq!(after_restart, vec![(interval, None)]);
    }
}
