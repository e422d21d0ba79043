//! PTEMagnet: fine-grained physical memory reservation for faster page walks
//! in public clouds (ASPLOS 2021).
//!
//! This crate is the paper's contribution, implemented against the
//! `vmsim-os` substrate the same way the original is implemented against the
//! Linux kernel: as a drop-in guest-OS frame-allocation policy.
//!
//! # How it works (paper §4)
//!
//! On the first page fault to any aligned group of eight 4 KB virtual pages,
//! the [`ReservationAllocator`] takes a *contiguous, aligned* eight-frame
//! chunk (one buddy order-3 block) from the guest buddy allocator, hands the
//! faulting page its frame, and records the remaining seven in the
//! per-process **Page Reservation Table** ([`PaRt`]) — a lock-free 4-level
//! radix tree. Subsequent faults in the group are served straight from the
//! reservation, without touching the buddy allocator. Guest-physical
//! contiguity at 32 KB granularity is therefore *guaranteed*, so the eight
//! host PTEs of every group share one cache line and nested page walks stop
//! missing on scattered host-PT lines.
//!
//! Under memory pressure, reserved-but-unused frames are reclaimed by a
//! daemon ([`ReclaimDaemon`]) that drains the PaRT of a victim process —
//! a cheap `free()` back to the buddy allocator, never a PT update or TLB
//! shootdown (§4.3).
//!
//! The ablations reuse this mechanism. The granularity sweep (`granular:N`
//! in [`registry`]) builds the same allocator with 1- to 16-page groups
//! ([`ReservationAllocator::granular`]), and [`GlobalLockPart`] puts the
//! PaRT behind one lock for the locking kernels.
//!
//! # Examples
//!
//! ```
//! use ptemagnet::ReservationAllocator;
//! use vmsim_os::{Machine, MachineConfig};
//!
//! # fn main() -> Result<(), vmsim_types::MemError> {
//! let mut m = Machine::with_allocator(
//!     MachineConfig::small(),
//!     Box::new(ReservationAllocator::new()),
//! );
//! let pid = m.guest_mut().spawn();
//! let va = m.guest_mut().mmap(pid, 64)?;
//! for i in 0..64 {
//!     m.touch(0, pid, vmsim_types::GuestVirtAddr::new(va.raw() + i * 4096), false)?;
//! }
//! // Every group's host PTEs share a single cache line.
//! let frag = m.host_pt_fragmentation(pid)?;
//! assert!((frag.mean() - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod ablation;
pub mod baselines;
pub mod part;
pub mod policy;
pub mod reclaim;
pub mod registry;
pub mod reservation;
mod sync;

pub use ablation::GlobalLockPart;
pub use baselines::{CaPagingLike, ThpAllocator};
pub use part::{PaRt, ReleaseOutcome, Reservation, TakeOutcome, MAX_GROUP_ORDER};
pub use policy::EnablePolicy;
pub use reclaim::ReclaimDaemon;
pub use registry::UnknownPolicy;
pub use reservation::{ReservationAllocator, ReservationStats};
