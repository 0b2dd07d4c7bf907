//! Layout helpers for step bookkeeping: the cache padding of the
//! thread-backed runtime's per-process counters.

/// Minimal cache-padding so adjacent hot atomics don't false-share.
/// Public: object layouts built on `smr` primitives (e.g. the
/// k-multiplicative counter's hot switch stripe) pad with the same type
/// the runtime pads its per-process counters with.
pub mod pad {
    /// Pads `T` to (at least) a typical cache-line size.
    #[repr(align(128))]
    #[derive(Debug, Default)]
    pub struct CachePadded<T>(T);

    impl<T> CachePadded<T> {
        /// Wrap `t` in its own cache line.
        pub fn new(t: T) -> Self {
            CachePadded(t)
        }
    }

    impl<T> std::ops::Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }
}
