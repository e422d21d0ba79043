//! The allocation-policy registry: named policies → allocators.
//!
//! Every experiment-facing layer (manifests, the `vmsim` CLI, the scenario
//! driver, the ablation manifests) selects allocators by **name** through
//! [`resolve`], so adding a policy means adding one arm here — not a new
//! enum variant in the harness and not a new binary.
//!
//! The registry is layered: [`vmsim_os::resolve_os_policy`] owns the
//! OS-native names (`default`), and this module adds the paper's policies
//! and ablations on top:
//!
//! | Name             | Allocator                                          |
//! |------------------|----------------------------------------------------|
//! | `default`        | [`vmsim_os::DefaultAllocator`] (order-0 buddy)     |
//! | `ptemagnet`      | [`ReservationAllocator`] (the paper's mechanism)   |
//! | `thp`            | [`ThpAllocator`] (THP=always, §2.3 baseline)       |
//! | `ca-paging-like` | [`CaPagingLike`] (best-effort contiguity, §7)      |
//! | `granular:N`     | [`GranularReservationAllocator`] with N-page groups|
//!
//! `N` in `granular:N` must be a power of two in 1..=16 (the granularity
//! ablation's sweep); `granular:8` matches PTEMagnet's group size.

use vmsim_os::GuestFrameAllocator;

use crate::ablation::GranularReservationAllocator;
use crate::baselines::{CaPagingLike, ThpAllocator};
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
    let mut names = vmsim_os::OS_POLICY_NAMES.to_vec();
    names.extend(["ptemagnet", "thp", "ca-paging-like", "granular:8"]);
    names
}

/// Resolves a policy name to a fresh allocator instance.
///
/// # Errors
///
/// Returns [`UnknownPolicy`] if the name is neither an OS-native policy,
/// one of the paper's policies, nor a valid `granular:N`.
pub fn resolve(name: &str) -> Result<Box<dyn GuestFrameAllocator>, UnknownPolicy> {
    if let Some(alloc) = vmsim_os::resolve_os_policy(name) {
        return Ok(alloc);
    }
    match name {
        "ptemagnet" => Ok(Box::new(ReservationAllocator::new())),
        "thp" => Ok(Box::new(ThpAllocator::new())),
        "ca-paging-like" => Ok(Box::new(CaPagingLike::new())),
        _ => {
            if let Some(pages) = name.strip_prefix("granular:") {
                if let Ok(n) = pages.parse::<u64>() {
                    if n.is_power_of_two() && (1..=16).contains(&n) {
                        return Ok(Box::new(GranularReservationAllocator::new(
                            n.trailing_zeros(),
                        )));
                    }
                }
            }
            Err(UnknownPolicy {
                name: name.to_string(),
            })
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
