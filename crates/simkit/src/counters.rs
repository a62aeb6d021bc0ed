//! The one counter idiom: [`counter_set!`](crate::counter_set).

/// Declares a set of cumulative `u64` counters: a `Copy` struct of
/// documented `pub` fields with `merged` (field-wise sum — aggregating
/// per-shard or per-transport sets into one view) and `since` (field-wise
/// difference of two snapshots — excluding warm-up from a measurement).
/// Derived figures (rates, totals) stay ordinary `impl` blocks beside the
/// declaration.
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$field_meta:meta])* pub $field:ident: u64, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$field_meta])* pub $field: u64, )+
        }

        impl $name {
            /// Field-wise sum of two counter sets.
            pub fn merged(&self, other: &Self) -> Self {
                Self { $( $field: self.$field + other.$field, )+ }
            }

            /// Field-wise difference of two snapshots (`self` later than
            /// `earlier`).
            pub fn since(&self, earlier: &Self) -> Self {
                Self { $( $field: self.$field - earlier.$field, )+ }
            }
        }
    };
}
