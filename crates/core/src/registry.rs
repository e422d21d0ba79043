//! The allocation-policy registry: named policies → allocators.
//!
//! Every experiment-facing layer (manifests, the `vmsim` CLI, the scenario
//! driver, the ablation manifests) selects allocators by **name** through
//! [`resolve`], so adding a policy means adding one arm here — not a new
//! enum variant in the harness and not a new binary.
//!
//! | Name             | Allocator                                            |
//! |------------------|------------------------------------------------------|
//! | `default`        | [`vmsim_os::DefaultAllocator`] (order-0 buddy)       |
//! | `ptemagnet`      | [`ReservationAllocator`] (the paper's mechanism)     |
//! | `thp`            | [`ThpAllocator`] (THP=always, §2.3 baseline)         |
//! | `ca-paging-like` | [`CaPagingLike`] (best-effort contiguity, §7)        |
//! | `granular:N`     | [`ReservationAllocator::granular`] at order log2 N   |
//!
//! `N` in `granular:N` must be a power of two in 1..=16 (the granularity
//! ablation's sweep). `granular:8` is PTEMagnet under another label, so
//! `granular:1` to `granular:16` differ from it only in group size.

use vmsim_os::{DefaultAllocator, GuestFrameAllocator};

use crate::baselines::{CaPagingLike, ThpAllocator};
use crate::part::MAX_GROUP_ORDER;
use crate::reservation::ReservationAllocator;

/// A policy name the registry cannot resolve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownPolicy {
    /// The name that failed to resolve.
    pub name: String,
}

impl core::fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "unknown policy {:?} (known: {}, granular:N for N in {{1,2,4,8,16}})",
            self.name,
            catalog().join(", ")
        )
    }
}

impl std::error::Error for UnknownPolicy {}

/// The fixed policy names, for `vmsim list` and error messages (the
/// parameterized `granular:N` family is documented alongside).
pub fn catalog() -> Vec<&'static str> {
    vec![
        "default",
        "ptemagnet",
        "thp",
        "ca-paging-like",
        "granular:8",
    ]
}

/// Resolves a policy name to a fresh allocator instance.
///
/// # Errors
///
/// Returns [`UnknownPolicy`] if the name is neither `default`, one of the
/// paper's policies, nor a valid `granular:N`.
pub fn resolve(name: &str) -> Result<Box<dyn GuestFrameAllocator>, UnknownPolicy> {
    match name {
        "default" => Ok(Box::new(DefaultAllocator::new())),
        "ptemagnet" => Ok(Box::new(ReservationAllocator::new())),
        "thp" => Ok(Box::new(ThpAllocator::new())),
        "ca-paging-like" => Ok(Box::new(CaPagingLike::new())),
        _ => {
            let pages = name
                .strip_prefix("granular:")
                .and_then(|n| n.parse::<u64>().ok());
            match pages {
                Some(n) if n.is_power_of_two() && n.trailing_zeros() <= MAX_GROUP_ORDER => {
                    Ok(Box::new(ReservationAllocator::granular(n.trailing_zeros())))
                }
                _ => Err(UnknownPolicy {
                    name: name.to_string(),
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_resolve_and_label_themselves() {
        for name in catalog() {
            let alloc = resolve(name).expect(name);
            if let Some(base) = name.strip_suffix(":8") {
                assert_eq!(base, "granular");
                assert_eq!(alloc.name(), "granular-reservation");
            } else {
                assert_eq!(alloc.name(), name);
            }
        }
    }

    #[test]
    fn granular_n_reserves_n_page_groups() {
        for n in [1u64, 2, 4, 8, 16] {
            // The first fault reserves a whole N-page group.
            let mut alloc = resolve(&format!("granular:{n}")).expect("resolves");
            let mut buddy = vmsim_os::GuestBuddy::new(64);
            let page = vmsim_types::GuestVirtPage::new(0);
            alloc.allocate(vmsim_os::Pid(1), page, &mut buddy).unwrap();
            assert_eq!(alloc.reserved_unused_frames(), n - 1, "granular:{n}");
        }
    }

    #[test]
    fn granular_family_parses_powers_of_two_only() {
        for n in [1u64, 2, 4, 8, 16] {
            assert!(resolve(&format!("granular:{n}")).is_ok());
        }
        for bad in ["granular:3", "granular:32", "granular:0", "granular:x"] {
            assert!(resolve(bad).is_err(), "{bad} must not resolve");
        }
    }

    #[test]
    fn unknown_names_error_with_catalog() {
        let err = resolve("nonexistent").unwrap_err();
        assert_eq!(err.name, "nonexistent");
        let msg = err.to_string();
        assert!(msg.contains("ptemagnet") && msg.contains("default"));
    }
}
