//! Guest OS, host OS (hypervisor), and assembled virtual machine models.
//!
//! This crate provides the operating-system substrate the paper's mechanism
//! lives in:
//!
//! * [`vma`] — eager virtual-address-space allocation (`mmap`-style regions);
//! * [`process`] — guest processes, each with its own VMA set and its own
//!   radix page table materialized in guest-physical frames;
//! * [`guest`] — the guest kernel: lazy page-fault-driven physical
//!   allocation through a pluggable [`GuestFrameAllocator`] (the default
//!   Linux-like order-0 allocator lives here; PTEMagnet plugs in from the
//!   `ptemagnet` crate), plus fork/COW semantics (§4.4);
//! * [`host`] — the hypervisor/host-kernel model: the VM is a host process
//!   whose virtual memory *is* guest-physical memory (§3.1), backed lazily by
//!   host frames and translated by a host page table;
//! * [`machine`] — the assembled VM: guest + host + cache hierarchy + TLBs +
//!   page-walk caches, with the nested (2D) page-walk engine that charges
//!   every page-table access to the cache model (§2.5's up-to-24-access
//!   walk).
//!
//! # Examples
//!
//! ```
//! use vmsim_os::{Machine, MachineConfig};
//!
//! # fn main() -> Result<(), vmsim_types::MemError> {
//! let mut m = Machine::new(MachineConfig::small());
//! let pid = m.guest_mut().spawn();
//! let va = m.guest_mut().mmap(pid, 16)?; // 16 pages of virtual memory
//! let out = m.touch(0, pid, va, false)?; // first touch: faults + walks
//! assert!(out.faulted);
//! let again = m.touch(0, pid, va, false)?;
//! assert!(again.tlb_hit);
//! # Ok(())
//! # }
//! ```

pub mod cost;
pub mod frames;
pub mod guest;
pub mod host;
pub mod machine;
pub mod process;
pub mod vma;

pub use cost::CostModel;
pub use frames::FrameRefTable;
pub use guest::{
    AllocCost, AllocGrant, DefaultAllocator, GuestBuddy, GuestFrameAllocator, GuestOs,
};
pub use host::HostOs;
pub use machine::{Machine, MachineConfig, MemoStats, ShapeError, TouchOutcome};
pub use process::{Pid, Process};
pub use vma::{Vma, VmaSet};
pub use vmsim_buddy::MAX_ORDER;
