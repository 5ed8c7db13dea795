//! Shared fingerprint plumbing for the persistent stores.
//!
//! Both on-disk stores — the [run cache](crate::experiments::cache) and
//! the [trace store](crate::tracestore) — invalidate entries by hashing
//! everything that can change their contents: the resolved configuration,
//! the input-graph recipe, the schema/codec versions, and the crate
//! version. No environment knob is hashed: the one that picks what runs,
//! `GRAPHPIM_SCALE`, only sets the context's default size, and every run
//! key and graph recipe already records the size it runs at.

/// FNV-1a hash over the given parts (with separators, so part boundaries
/// matter). Used as the config fingerprint of every store entry.
pub fn fingerprint(parts: &[&str]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for b in part.bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= 0x1f;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_depends_on_part_boundaries() {
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        assert_ne!(fingerprint(&["x"]), fingerprint(&["x", ""]));
        assert_eq!(fingerprint(&["x", "y"]), fingerprint(&["x", "y"]));
    }
}
