//! [`AddrMap`]: hash maps keyed by base-object addresses.
//!
//! Base objects are identified by their address ([`Access::obj`]), so
//! the explorer's first-touch ids and the analysis passes' per-object
//! state key maps by addresses this process allocated itself, never by
//! outside input. SipHash's defence against crafted collisions buys
//! nothing there; one multiply does.
//!
//! [`Access::obj`]: crate::Access::obj

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by base-object address, hashed with [`AddrHasher`].
pub(crate) type AddrMap<V> = HashMap<usize, V, BuildHasherDefault<AddrHasher>>;

/// Multiplicative hashing for object addresses.
#[derive(Default)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("AddrMap hashes usize keys only");
    }

    fn write_usize(&mut self, addr: usize) {
        self.0 = (addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    /// The product's high bits mix every address bit; the table indexes
    /// buckets with the low bits, so rotate the high bits down.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}
