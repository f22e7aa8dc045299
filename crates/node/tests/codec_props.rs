//! Satellite 1: codec robustness properties.
//!
//! Three layers of defense for the wire codec, plus its sizing:
//!
//! * **roundtrip** — every message shape survives encode→decode bit
//!   for bit, across the whole generator space;
//! * **sizing** — `encode` allocates each frame once, at exactly its
//!   length;
//! * **truncation** — every strict prefix of a valid frame decodes to
//!   a typed error, never a panic and never a bogus `Ok`;
//! * **bit-flip fuzz** — flipping any single bit of a valid frame
//!   either fails with a typed error or yields a message that
//!   re-encodes canonically (decode is a partial inverse of encode on
//!   its accepted set).
//!
//! The lints `ert-node` denies (`clippy::unwrap_used`, `expect_used`,
//! `panic`, `unreachable`, and `indexing_slicing` in the codec module)
//! independently guarantee the decoder contains no panicking
//! constructs; these properties check the behavioral half of the same
//! contract.

use ert_node::{decode, encode, AdaptOp, CodecError, LookupStatus, Message};
use ert_sim::SimRng;
use proptest::prelude::*;
use rand::Rng;

fn ids(rng: &mut SimRng, max: usize) -> Vec<u64> {
    let n = rng.gen_range(0..=max);
    (0..n).map(|_| rng.gen::<u64>()).collect()
}

/// Draws one message of every shape with seeded randomized payloads.
fn arbitrary_message(seed: u64, shape: u32) -> Message {
    let mut rng = SimRng::seed_from(seed);
    match shape % 8 {
        0 => Message::Join {
            id: rng.gen(),
            members: ids(&mut rng, 40),
        },
        1 => Message::Stabilize {
            round: rng.gen(),
            members: ids(&mut rng, 40),
        },
        2 => Message::Lookup {
            query: rng.gen(),
            key: rng.gen(),
            hops: rng.gen(),
            attempts: rng.gen(),
            flags: rng.gen(),
            avoid: ids(&mut rng, 24),
        },
        3 => Message::LookupReply {
            query: rng.gen(),
            status: match shape % 3 {
                0 => LookupStatus::Found,
                1 => LookupStatus::Dropped,
                _ => LookupStatus::Failed,
            },
            owner: rng.gen(),
            hops: rng.gen(),
        },
        4 => Message::ProbeLoad { token: rng.gen() },
        5 => Message::LoadReport {
            token: rng.gen(),
            load: rng.gen(),
            capacity: rng.gen(),
            indegree: rng.gen(),
            spare: rng.gen::<i64>(),
        },
        6 => Message::AdaptIndegree {
            from: rng.gen(),
            slot: rng.gen(),
            op: match shape % 3 {
                0 => AdaptOp::AddOutlink,
                1 => AdaptOp::DropOutlinks,
                _ => AdaptOp::AddBackward,
            },
        },
        _ => Message::Leave { id: rng.gen() },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn roundtrip_is_identity(seed in 0u64..100_000, shape in 0u32..256) {
        let msg = arbitrary_message(seed, shape);
        let bytes = encode(&msg);
        prop_assert_eq!(decode(&bytes).unwrap(), msg);
    }

    /// `encode` reserves `encoded_len(&m)` bytes up front and
    /// `Vec::reserve_exact` on an empty vector allocates exactly that,
    /// so `capacity() == len()` is `encoded_len(&m) == encode(&m).len()`
    /// seen from outside the crate: a short size would have grown the
    /// frame, a long one left it slack.
    #[test]
    fn encoded_len_sizes_every_frame_exactly(seed in 0u64..100_000, shape in 0u32..256) {
        let frame = encode(&arbitrary_message(seed, shape));
        prop_assert_eq!(frame.capacity(), frame.len());
    }

    #[test]
    fn every_strict_prefix_is_a_typed_error(seed in 0u64..50_000, shape in 0u32..256) {
        let msg = arbitrary_message(seed, shape);
        let bytes = encode(&msg);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of length {}/{} decoded successfully",
                cut,
                bytes.len()
            );
        }
    }

    #[test]
    fn single_bit_flips_never_panic_and_ok_results_reencode(
        seed in 0u64..50_000,
        shape in 0u32..256,
    ) {
        let msg = arbitrary_message(seed, shape);
        let bytes = encode(&msg);
        for byte in 0..bytes.len() {
            for bit in 0..8u8 {
                let mut mutated = bytes.clone();
                mutated[byte] ^= 1 << bit;
                // Must not panic; on acceptance, the decoded message
                // must re-encode to exactly the mutated bytes
                // (canonical encoding: accepted frames are fixpoints).
                if let Ok(got) = decode(&mutated) {
                    prop_assert_eq!(
                        encode(&got),
                        mutated.clone(),
                        "bit {bit} of byte {byte}: non-canonical accept"
                    );
                }
            }
        }
    }

    #[test]
    fn random_garbage_never_panics(seed in 0u64..100_000, len in 0usize..512) {
        let mut rng = SimRng::seed_from(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let _unused = decode(&bytes);
    }
}

#[test]
fn the_frames_the_build_and_the_route_send_most_fit_their_allocation() {
    // Every table-build RPC is answered by a 44-byte report; a lookup
    // past an overloaded hop carries its avoid-set.
    let report = encode(&Message::LoadReport {
        token: 3,
        load: 1,
        capacity: 8,
        indegree: 5,
        spare: -2,
    });
    let lookup = encode(&Message::Lookup {
        query: 1,
        key: 99,
        hops: 3,
        attempts: 0,
        flags: 0,
        avoid: vec![4, 8, 15, 16],
    });
    assert_eq!((report.len(), report.capacity()), (44, 44));
    assert_eq!((lookup.len(), lookup.capacity()), (69, 69));
}

#[test]
fn error_taxonomy_is_reachable() {
    // Each decoder rejection path has a distinguishable typed error.
    assert!(matches!(decode(&[]), Err(CodecError::Truncated)));
    assert!(matches!(
        decode(b"XX\x01\x01\0\0\0\x01\0"),
        Err(CodecError::BadMagic)
    ));
    assert!(matches!(
        decode(b"ER\x07\x01\0\0\0\x01\0"),
        Err(CodecError::BadVersion(7))
    ));
    // The header of the protocol before `AddOutlink` answered
    // present/added.
    assert!(matches!(
        decode(b"ER\x01\x01\0\0\0\x01\0"),
        Err(CodecError::BadVersion(1))
    ));
    assert!(matches!(
        decode(b"ER\x02\x63\0\0\0\x01\0"),
        Err(CodecError::UnknownTag(0x63))
    ));
    let valid = encode(&Message::ProbeLoad { token: 7 });
    let mut lied = valid.clone();
    lied[7] = lied[7].wrapping_add(1);
    assert!(matches!(
        decode(&lied),
        Err(CodecError::LengthMismatch { .. })
    ));
    let mut huge = valid.clone();
    huge[4..8].copy_from_slice(&(u32::MAX).to_be_bytes());
    assert!(matches!(decode(&huge), Err(CodecError::FrameTooLarge(_))));
    let mut trailing = valid;
    trailing.push(0);
    // Declared length counts payload bytes only (frame minus header).
    let fixed_len = ((trailing.len() - 8) as u32).to_be_bytes();
    trailing[4..8].copy_from_slice(&fixed_len);
    assert!(matches!(
        decode(&trailing),
        Err(CodecError::TrailingBytes(1))
    ));
    let mut bad_status = encode(&Message::LookupReply {
        query: 1,
        status: LookupStatus::Found,
        owner: 2,
        hops: 3,
    });
    let idx = bad_status.len() - 13;
    bad_status[idx] = 9;
    assert!(matches!(
        decode(&bad_status),
        Err(CodecError::BadEnum { .. })
    ));
    // Op byte 0 was version 1's link query; no op answers to it now.
    let mut no_such_op = encode(&Message::AdaptIndegree {
        from: 1,
        slot: 2,
        op: AdaptOp::AddOutlink,
    });
    *no_such_op.last_mut().unwrap() = 0;
    assert_eq!(
        decode(&no_such_op),
        Err(CodecError::BadEnum {
            field: "AdaptOp",
            value: 0
        })
    );
}
