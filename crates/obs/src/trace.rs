//! Typed event tracing with a bounded ring buffer and JSONL export.
//!
//! The tracer is opt-in per machine: hot paths hold an `Option<Tracer>` and
//! emit only after an `is_some()` check, so the disabled path costs one
//! branch and allocates nothing — keeping parallel runs deterministic and
//! `RunMetrics` bit-identical whether or not a tracer is installed.

use crate::json;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// A typed simulator event. Field meanings:
/// `pid` — guest process id; `vpn` — guest virtual page number;
/// `gfn` — guest frame number; cycle costs are simulated cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A guest page fault was served (minor fault or CoW break).
    PageFault {
        pid: u64,
        vpn: u64,
        gfn: u64,
        huge: bool,
    },
    /// A fault was served by creating a new reservation (PTEMagnet only).
    ReservationTake { pid: u64, vpn: u64, gfn: u64 },
    /// A fault was served from an existing reservation.
    ReservationHit { pid: u64, vpn: u64, gfn: u64 },
    /// Reclaim released this many reserved-but-unused frames.
    ReservationReclaim { frames: u64 },
    /// One nested page walk: levels touched, total cycles, PWC-skipped levels.
    PtWalk {
        levels: u32,
        cycles: u64,
        pwc_hits: u32,
    },
    /// Buddy allocator split events since the previous observation.
    BuddySplit { count: u64 },
    /// Buddy allocator merge events since the previous observation.
    BuddyMerge { count: u64 },
    /// A transparent-huge-page region was mapped as one huge page.
    ThpCollapse { pid: u64, vpn: u64 },
    /// The fault injector denied buddy allocations while serving this op:
    /// contiguous-chunk (order ≥ 1) and single-frame (order 0) denials.
    FaultInjected {
        chunk_denials: u64,
        oom_denials: u64,
    },
    /// A scheduled fragmentation shock shattered the guest free lists down
    /// to `max_order`, performing `splits` block splits.
    FragShock { max_order: u32, splits: u64 },
    /// A scheduled reclaim storm released this many reserved-unused frames.
    ReclaimStorm { frames: u64 },
    /// The host targeted a reserved-unused frame for swap-out; the covering
    /// reservation released this many frames.
    SwapOut { gfn: u64, frames: u64 },
    /// A reservation degraded to a single-frame fallback allocation
    /// (no aligned chunk available, or the chunk allocation was denied).
    ReservationFallback { pid: u64, vpn: u64, gfn: u64 },
    /// An injected OOM was absorbed: reclaim freed `reclaimed` frames and
    /// the faulting allocation was retried with injection suppressed.
    OomRetry { reclaimed: u64 },
    /// The supervisor quarantined a matrix cell after all `attempts`
    /// attempts failed; the cell is reported with its typed error.
    CellQuarantined { cell: u64, attempts: u32 },
    /// The supervisor retried a quarantined cell (this is attempt number
    /// `attempt`, counting the first run as attempt 0).
    CellRetried { cell: u64, attempt: u32 },
    /// `vmsim run --resume` skipped this many already-journaled cells.
    RunResumed { cells: u64 },
    /// A guest VM (re)booted on the host; `boot` counts boots of this slot.
    VmBoot { vm: u32, boot: u64 },
    /// A guest VM was killed; `frames` host frames were released.
    VmKill { vm: u32, frames: u64 },
    /// A balloon operation moved `frames` frames between a guest and the
    /// host pool (`inflate` true = guest gave memory back to the host).
    Balloon { vm: u32, frames: u64, inflate: bool },
}

impl EventKind {
    /// Stable schema name for the `"event"` JSONL field.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PageFault { .. } => "page_fault",
            EventKind::ReservationTake { .. } => "reservation_take",
            EventKind::ReservationHit { .. } => "reservation_hit",
            EventKind::ReservationReclaim { .. } => "reservation_reclaim",
            EventKind::PtWalk { .. } => "pt_walk",
            EventKind::BuddySplit { .. } => "buddy_split",
            EventKind::BuddyMerge { .. } => "buddy_merge",
            EventKind::ThpCollapse { .. } => "thp_collapse",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::FragShock { .. } => "frag_shock",
            EventKind::ReclaimStorm { .. } => "reclaim_storm",
            EventKind::SwapOut { .. } => "swap_out",
            EventKind::ReservationFallback { .. } => "reservation_fallback",
            EventKind::OomRetry { .. } => "oom_retry",
            EventKind::CellQuarantined { .. } => "cell_quarantined",
            EventKind::CellRetried { .. } => "cell_retried",
            EventKind::RunResumed { .. } => "run_resumed",
            EventKind::VmBoot { .. } => "vm_boot",
            EventKind::VmKill { .. } => "vm_kill",
            EventKind::Balloon { .. } => "balloon",
        }
    }

    fn write_fields(&self, out: &mut String) {
        match *self {
            EventKind::PageFault {
                pid,
                vpn,
                gfn,
                huge,
            } => {
                let _ = write!(
                    out,
                    ",\"pid\":{pid},\"vpn\":{vpn},\"gfn\":{gfn},\"huge\":{huge}"
                );
            }
            EventKind::ReservationTake { pid, vpn, gfn }
            | EventKind::ReservationHit { pid, vpn, gfn } => {
                let _ = write!(out, ",\"pid\":{pid},\"vpn\":{vpn},\"gfn\":{gfn}");
            }
            EventKind::ReservationReclaim { frames } => {
                let _ = write!(out, ",\"frames\":{frames}");
            }
            EventKind::PtWalk {
                levels,
                cycles,
                pwc_hits,
            } => {
                let _ = write!(
                    out,
                    ",\"levels\":{levels},\"cycles\":{cycles},\"pwc_hits\":{pwc_hits}"
                );
            }
            EventKind::BuddySplit { count } | EventKind::BuddyMerge { count } => {
                let _ = write!(out, ",\"count\":{count}");
            }
            EventKind::ThpCollapse { pid, vpn } => {
                let _ = write!(out, ",\"pid\":{pid},\"vpn\":{vpn}");
            }
            EventKind::FaultInjected {
                chunk_denials,
                oom_denials,
            } => {
                let _ = write!(
                    out,
                    ",\"chunk_denials\":{chunk_denials},\"oom_denials\":{oom_denials}"
                );
            }
            EventKind::FragShock { max_order, splits } => {
                let _ = write!(out, ",\"max_order\":{max_order},\"splits\":{splits}");
            }
            EventKind::ReclaimStorm { frames } => {
                let _ = write!(out, ",\"frames\":{frames}");
            }
            EventKind::SwapOut { gfn, frames } => {
                let _ = write!(out, ",\"gfn\":{gfn},\"frames\":{frames}");
            }
            EventKind::ReservationFallback { pid, vpn, gfn } => {
                let _ = write!(out, ",\"pid\":{pid},\"vpn\":{vpn},\"gfn\":{gfn}");
            }
            EventKind::OomRetry { reclaimed } => {
                let _ = write!(out, ",\"reclaimed\":{reclaimed}");
            }
            EventKind::CellQuarantined { cell, attempts } => {
                let _ = write!(out, ",\"cell\":{cell},\"attempts\":{attempts}");
            }
            EventKind::CellRetried { cell, attempt } => {
                let _ = write!(out, ",\"cell\":{cell},\"attempt\":{attempt}");
            }
            EventKind::RunResumed { cells } => {
                let _ = write!(out, ",\"cells\":{cells}");
            }
            EventKind::VmBoot { vm, boot } => {
                let _ = write!(out, ",\"vm\":{vm},\"boot\":{boot}");
            }
            EventKind::VmKill { vm, frames } => {
                let _ = write!(out, ",\"vm\":{vm},\"frames\":{frames}");
            }
            EventKind::Balloon {
                vm,
                frames,
                inflate,
            } => {
                let _ = write!(
                    out,
                    ",\"vm\":{vm},\"frames\":{frames},\"inflate\":{inflate}"
                );
            }
        }
    }
}

/// An event stamped with the monotonic simulated-op clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    pub op: u64,
    pub kind: EventKind,
}

impl Event {
    /// Appends this event's JSONL object, `{"op":N,"event":"kind",...fields}`,
    /// to `out` (without a newline). Every rendering of an event goes
    /// through here.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"op\":{},\"event\":", self.op);
        json::write_str(out, self.kind.name());
        self.kind.write_fields(out);
        out.push('}');
    }

    /// One JSONL line: `{"op":N,"event":"kind",...fields}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write_json(&mut out);
        out
    }
}

/// `events` as JSON Lines: one [`Event::write_json`] object per line, in
/// order, rendered into a single buffer.
pub fn to_jsonl<'a>(events: impl IntoIterator<Item = &'a Event>) -> String {
    let events = events.into_iter();
    // Rendered lines average 60-80 bytes.
    let mut out = String::with_capacity(events.size_hint().0 * 80);
    for event in events {
        event.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Bounded ring buffer of [`Event`]s.
///
/// When full, the oldest events are evicted and counted in
/// [`Tracer::dropped`], so a long run keeps its most recent window.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    buf: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

/// Default ring capacity (events kept) when none is specified.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

impl Tracer {
    /// Tracer with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Tracer keeping at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Record an event at simulated-op time `op`.
    pub fn emit(&mut self, op: u64, kind: EventKind) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Event { op, kind });
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Count of retained events matching a kind name.
    pub fn count_kind(&self, name: &str) -> usize {
        self.buf.iter().filter(|e| e.kind.name() == name).count()
    }

    /// Remove and return all retained events, oldest first.
    pub fn drain(&mut self) -> Vec<Event> {
        self.buf.drain(..).collect()
    }

    /// All retained events as JSON Lines (one object per line, oldest first).
    pub fn to_jsonl(&self) -> String {
        to_jsonl(&self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut t = Tracer::with_capacity(2);
        t.emit(1, EventKind::BuddySplit { count: 1 });
        t.emit(2, EventKind::BuddySplit { count: 2 });
        t.emit(3, EventKind::BuddySplit { count: 3 });
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        let ops: Vec<u64> = t.events().map(|e| e.op).collect();
        assert_eq!(ops, vec![2, 3]);
    }

    #[test]
    fn every_kind_serializes_to_parseable_json() {
        let kinds = [
            EventKind::PageFault {
                pid: 1,
                vpn: 2,
                gfn: 3,
                huge: false,
            },
            EventKind::ReservationTake {
                pid: 1,
                vpn: 2,
                gfn: 3,
            },
            EventKind::ReservationHit {
                pid: 1,
                vpn: 2,
                gfn: 3,
            },
            EventKind::ReservationReclaim { frames: 8 },
            EventKind::PtWalk {
                levels: 4,
                cycles: 120,
                pwc_hits: 2,
            },
            EventKind::BuddySplit { count: 5 },
            EventKind::BuddyMerge { count: 5 },
            EventKind::ThpCollapse { pid: 1, vpn: 512 },
            EventKind::FaultInjected {
                chunk_denials: 2,
                oom_denials: 1,
            },
            EventKind::FragShock {
                max_order: 0,
                splits: 42,
            },
            EventKind::ReclaimStorm { frames: 64 },
            EventKind::SwapOut { gfn: 96, frames: 7 },
            EventKind::ReservationFallback {
                pid: 1,
                vpn: 2,
                gfn: 3,
            },
            EventKind::OomRetry { reclaimed: 12 },
            EventKind::CellQuarantined {
                cell: 3,
                attempts: 2,
            },
            EventKind::CellRetried {
                cell: 3,
                attempt: 1,
            },
            EventKind::RunResumed { cells: 5 },
            EventKind::VmBoot { vm: 2, boot: 3 },
            EventKind::VmKill { vm: 2, frames: 640 },
            EventKind::Balloon {
                vm: 1,
                frames: 32,
                inflate: true,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let line = Event { op: i as u64, kind }.to_json();
            let doc = crate::json::parse(&line).expect("event JSON must parse");
            assert_eq!(doc.get("op").unwrap().as_u64(), Some(i as u64));
            assert_eq!(doc.get("event").unwrap().as_str(), Some(kind.name()));
        }
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut t = Tracer::new();
        t.emit(0, EventKind::ReservationReclaim { frames: 1 });
        t.emit(
            1,
            EventKind::PtWalk {
                levels: 24,
                cycles: 9,
                pwc_hits: 0,
            },
        );
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(crate::json::parse(line).unwrap().is_obj());
        }
    }

    #[test]
    fn drain_empties_the_ring() {
        let mut t = Tracer::new();
        t.emit(7, EventKind::BuddyMerge { count: 1 });
        let events = t.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].op, 7);
        assert!(t.is_empty());
    }
}
