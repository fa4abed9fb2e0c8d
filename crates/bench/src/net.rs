//! Transfer-path modelling: the `sendfile` zero-copy claim.
//!
//! "A typical approach to sending bytes from a local file to a remote
//! socket involves ... 4 data copying and 2 system calls. On Linux ...
//! there exists a sendfile API that can directly transfer bytes from a
//! file channel to a socket channel ... Kafka exploits the sendfile API to
//! efficiently deliver bytes in a log segment file from a broker to a
//! consumer" (§V.B).
//!
//! In-process, the page cache is a `Bytes` buffer. The zero-copy path
//! hands out a reference-counted slice (no byte movement, one "syscall");
//! the conventional path performs the four explicit copies. The
//! `kafka_zerocopy` benchmark (C-15, `benches/kafka.rs`) measures the
//! difference; the counters here make the copy arithmetic checkable.

use bytes::Bytes;

/// Which send path to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// `sendfile`: file channel → socket channel.
    ZeroCopy,
    /// read → user buffer → kernel socket buffer → wire.
    FourCopy,
}

/// Accounting for one transfer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Bytes physically copied by the CPU.
    pub bytes_copied: u64,
    /// System calls performed.
    pub syscalls: u64,
}

/// Serves `range` of a segment (`page_cache`) to a "socket", returning the
/// bytes as the consumer would see them plus the accounting.
pub fn transfer(page_cache: &Bytes, start: usize, len: usize, mode: TransferMode) -> (Bytes, TransferStats) {
    let end = (start + len).min(page_cache.len());
    match mode {
        TransferMode::ZeroCopy => {
            // sendfile: one syscall, no CPU copies — the socket reads
            // straight out of the page cache.
            (
                page_cache.slice(start..end),
                TransferStats {
                    bytes_copied: 0,
                    syscalls: 1,
                },
            )
        }
        TransferMode::FourCopy => {
            let span = end - start;
            // (1) page cache -> application buffer   [read syscall]
            let mut app_buffer = vec![0u8; span];
            app_buffer.copy_from_slice(&page_cache[start..end]);
            // (2) application buffer -> kernel socket buffer [send syscall]
            let mut socket_buffer = vec![0u8; span];
            socket_buffer.copy_from_slice(&app_buffer);
            // (3) kernel socket buffer -> NIC ring (modelled copy)
            let mut nic = vec![0u8; span];
            nic.copy_from_slice(&socket_buffer);
            // (4) wire -> receiver buffer (modelled copy)
            let mut receiver = vec![0u8; span];
            receiver.copy_from_slice(&nic);
            (
                Bytes::from(receiver),
                TransferStats {
                    bytes_copied: 4 * span as u64,
                    syscalls: 2,
                },
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment() -> Bytes {
        Bytes::from((0..=255u8).cycle().take(64 * 1024).collect::<Vec<u8>>())
    }

    #[test]
    fn both_paths_deliver_identical_bytes() {
        let cache = segment();
        let (zero, _) = transfer(&cache, 1000, 5000, TransferMode::ZeroCopy);
        let (four, _) = transfer(&cache, 1000, 5000, TransferMode::FourCopy);
        assert_eq!(zero, four);
        assert_eq!(zero.len(), 5000);
    }

    #[test]
    fn copy_accounting_matches_the_paper() {
        let cache = segment();
        let (_, zero) = transfer(&cache, 0, 10_000, TransferMode::ZeroCopy);
        let (_, four) = transfer(&cache, 0, 10_000, TransferMode::FourCopy);
        assert_eq!(zero.bytes_copied, 0);
        assert_eq!(zero.syscalls, 1);
        assert_eq!(four.bytes_copied, 40_000, "4 copies of 10k");
        assert_eq!(four.syscalls, 2);
    }

    #[test]
    fn zero_copy_shares_underlying_storage() {
        let cache = segment();
        let (slice, _) = transfer(&cache, 0, 1024, TransferMode::ZeroCopy);
        // Same allocation: the slice's data pointer is inside the cache.
        let cache_range = cache.as_ptr() as usize..cache.as_ptr() as usize + cache.len();
        assert!(cache_range.contains(&(slice.as_ptr() as usize)));
    }

    #[test]
    fn range_clamped_to_segment() {
        let cache = segment();
        let (bytes, _) = transfer(&cache, cache.len() - 10, 1000, TransferMode::ZeroCopy);
        assert_eq!(bytes.len(), 10);
    }
}
