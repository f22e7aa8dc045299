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
//!   its accepted set);
//! * **fixed-frame writers** — the `ProbeLoad`, `AdaptIndegree` and
//!   `LoadReport` frames the switch and the node write straight from
//!   the op or the report are byte for byte what `encode` makes of the
//!   message, on every `AdaptOp`, slots up to the sentinel `u16::MAX`
//!   and negative `spare`s, and decode back to it;
//! * **reference differential** — `decode`, which reads each message's
//!   fields into locals and builds the message in its result, answers
//!   exactly as the decoder that built the message first and then
//!   checked for trailing bytes ([`reference`]): the same whole
//!   `Result`, error variant and payload included, on every valid
//!   frame, every strict prefix, every single-byte overwrite, and
//!   frames with two faults at once.
//!
//! The lints `ert-node` denies (`clippy::unwrap_used`, `expect_used`,
//! `panic`, `unreachable`, and `indexing_slicing` in the codec module)
//! independently guarantee the decoder contains no panicking
//! constructs; these properties check the behavioral half of the same
//! contract.

use ert_node::codec::{
    encode_adapt_indegree, encode_load_report, encode_probe_load, HEADER_LEN, MAGIC, MAX_COUNT,
    MAX_FRAME, VERSION,
};
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

/// The decoder as it was before it built the message in its result:
/// the message built from a bounds-checked reader, then the
/// trailing-bytes check, then `Ok(msg)`. Kept as the reference
/// [`decode`] must answer exactly as, error for error.
mod reference {
    use super::*;

    struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
            let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
            let bytes = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
            self.pos = end;
            Ok(bytes)
        }

        fn u8(&mut self) -> Result<u8, CodecError> {
            Ok(self.take(1)?[0])
        }

        fn u16(&mut self) -> Result<u16, CodecError> {
            Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
        }

        fn u32(&mut self) -> Result<u32, CodecError> {
            Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
        }

        fn u64(&mut self) -> Result<u64, CodecError> {
            Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
        }

        fn ids(&mut self) -> Result<Vec<u64>, CodecError> {
            let count = self.u32()?;
            if count > MAX_COUNT {
                return Err(CodecError::CountTooLarge(count));
            }
            (0..count).map(|_| self.u64()).collect()
        }
    }

    fn status_from(value: u8) -> Result<LookupStatus, CodecError> {
        match value {
            0 => Ok(LookupStatus::Found),
            1 => Ok(LookupStatus::Dropped),
            2 => Ok(LookupStatus::Failed),
            _ => Err(CodecError::BadEnum {
                field: "LookupStatus",
                value,
            }),
        }
    }

    fn op_from(value: u8) -> Result<AdaptOp, CodecError> {
        match value {
            1 => Ok(AdaptOp::AddOutlink),
            2 => Ok(AdaptOp::DropOutlinks),
            3 => Ok(AdaptOp::AddBackward),
            _ => Err(CodecError::BadEnum {
                field: "AdaptOp",
                value,
            }),
        }
    }

    pub fn decode(frame: &[u8]) -> Result<Message, CodecError> {
        let mut r = Reader { buf: frame, pos: 0 };
        if r.take(2)? != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let tag = r.u8()?;
        let declared = r.u32()? as usize;
        if declared > MAX_FRAME {
            return Err(CodecError::FrameTooLarge(declared));
        }
        let actual = frame.len().saturating_sub(HEADER_LEN);
        if declared != actual {
            return Err(CodecError::LengthMismatch { declared, actual });
        }
        let msg = match tag {
            1 => Message::Join {
                id: r.u64()?,
                members: r.ids()?,
            },
            2 => Message::Stabilize {
                round: r.u32()?,
                members: r.ids()?,
            },
            3 => Message::Lookup {
                query: r.u64()?,
                key: r.u64()?,
                hops: r.u32()?,
                attempts: r.u32()?,
                flags: r.u8()?,
                avoid: r.ids()?,
            },
            4 => Message::LookupReply {
                query: r.u64()?,
                status: status_from(r.u8()?)?,
                owner: r.u64()?,
                hops: r.u32()?,
            },
            5 => Message::ProbeLoad { token: r.u64()? },
            6 => Message::LoadReport {
                token: r.u64()?,
                load: r.u64()?,
                capacity: r.u64()?,
                indegree: r.u32()?,
                spare: r.u64()? as i64,
            },
            7 => Message::AdaptIndegree {
                from: r.u64()?,
                slot: r.u16()?,
                op: op_from(r.u8()?)?,
            },
            8 => Message::Leave { id: r.u64()? },
            other => return Err(CodecError::UnknownTag(other)),
        };
        if r.pos != frame.len() {
            return Err(CodecError::TrailingBytes(frame.len().saturating_sub(r.pos)));
        }
        Ok(msg)
    }
}

/// `frame` with `extra` junk bytes appended and the header's declared
/// length raised to cover them: a frame whose only fault, unless it
/// already had one, is its trailing bytes.
fn with_trailing(frame: &[u8], extra: &[u8]) -> Vec<u8> {
    let mut out = frame.to_vec();
    out.extend_from_slice(extra);
    let declared = (out.len() - HEADER_LEN) as u32;
    out[4..8].copy_from_slice(&declared.to_be_bytes());
    out
}

/// `decode` and the reference agree on `frame`, whole `Result` and all.
fn agrees(frame: &[u8]) {
    assert_eq!(decode(frame), reference::decode(frame), "frame {frame:?}");
}

/// `decode` against the reference on one valid frame, each of its
/// strict prefixes, each single-byte overwrite (every value when
/// `every_value`, else the byte's complement and two fixed values), and
/// each of those overwrites with trailing bytes added (two faults: a
/// bad enum, count or tag byte plus junk the header declares).
fn differential(msg: &Message, every_value: bool) {
    let frame = encode(msg);
    assert_eq!(decode(&frame).as_ref(), Ok(msg));
    agrees(&frame);
    for cut in 0..frame.len() {
        agrees(&frame[..cut]);
    }
    agrees(&with_trailing(&frame, &[0]));
    agrees(&with_trailing(&frame, &[0xAB; 9]));
    for at in 0..frame.len() {
        let values: Vec<u8> = if every_value {
            (0..=255).collect()
        } else {
            vec![!frame[at], 0, 0xFF]
        };
        for v in values {
            let mut mutated = frame.clone();
            mutated[at] = v;
            agrees(&mutated);
            if at >= HEADER_LEN {
                agrees(&with_trailing(&mutated, &[v]));
            }
        }
    }
}

/// One message of every variant and enum value, each vector empty or
/// short, so that every byte of every frame can take every value.
fn small_messages() -> Vec<Message> {
    let mut msgs = vec![
        Message::Join {
            id: 7,
            members: vec![1, 2],
        },
        Message::Stabilize {
            round: 9,
            members: vec![],
        },
        Message::Lookup {
            query: 1,
            key: 99,
            hops: 3,
            attempts: 1,
            flags: 1,
            avoid: vec![4],
        },
        Message::ProbeLoad { token: 12 },
        Message::LoadReport {
            token: 12,
            load: 3,
            capacity: 8,
            indegree: 5,
            spare: -2,
        },
        Message::Leave { id: 7 },
    ];
    for status in [
        LookupStatus::Found,
        LookupStatus::Dropped,
        LookupStatus::Failed,
    ] {
        msgs.push(Message::LookupReply {
            query: 1,
            status,
            owner: 99,
            hops: 4,
        });
    }
    for op in [
        AdaptOp::AddOutlink,
        AdaptOp::DropOutlinks,
        AdaptOp::AddBackward,
    ] {
        msgs.push(Message::AdaptIndegree {
            from: 7,
            slot: u16::MAX,
            op,
        });
    }
    msgs
}

#[test]
fn decode_answers_as_the_reference_on_every_single_byte_overwrite() {
    for msg in small_messages() {
        differential(&msg, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The same differential over the generator space, with its
    /// longer vectors and arbitrary field values.
    #[test]
    fn decode_answers_as_the_reference(seed in 0u64..100_000, shape in 0u32..256) {
        differential(&arbitrary_message(seed, shape), false);
    }

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

    /// The fixed-frame writers on random field values, every op.
    #[test]
    fn fixed_frame_writers_encode_as_encode_does(seed in 0u64..100_000) {
        let mut rng = SimRng::seed_from(seed);
        let op = [AdaptOp::AddOutlink, AdaptOp::DropOutlinks, AdaptOp::AddBackward][rng.gen_range(0..3)];
        let mut kept = Vec::new();
        for _ in 0..4 {
            assert_fixed_writers_encode(
                &mut kept,
                rng.gen(),
                rng.gen(),
                rng.gen(),
                op,
                rng.gen(),
                rng.gen(),
                rng.gen(),
                rng.gen(),
            );
        }
    }

    #[test]
    fn random_garbage_never_panics(seed in 0u64..100_000, len in 0usize..512) {
        let mut rng = SimRng::seed_from(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let _unused = decode(&bytes);
    }
}

/// The three fixed-size RPC frames each written by its own writer
/// into `kept`, a buffer left dirty by whatever it held: byte for byte
/// what `encode` makes of the message, and decoding back to it.
#[expect(
    clippy::too_many_arguments,
    reason = "one value per field of the three frames"
)]
fn assert_fixed_writers_encode(
    kept: &mut Vec<u8>,
    token: u64,
    from: u64,
    slot: u16,
    op: AdaptOp,
    load: u64,
    capacity: u64,
    indegree: u32,
    spare: i64,
) {
    let probe = Message::ProbeLoad { token };
    encode_probe_load(token, kept);
    assert_eq!(*kept, encode(&probe), "{probe:?}");
    assert_eq!(decode(kept), Ok(probe));

    let adapt = Message::AdaptIndegree { from, slot, op };
    encode_adapt_indegree(from, slot, op, kept);
    assert_eq!(*kept, encode(&adapt), "{adapt:?}");
    assert_eq!(decode(kept), Ok(adapt));

    let report = Message::LoadReport {
        token,
        load,
        capacity,
        indegree,
        spare,
    };
    encode_load_report(token, load, capacity, indegree, spare, kept);
    assert_eq!(*kept, encode(&report), "{report:?}");
    assert_eq!(decode(kept), Ok(report));
}

/// Every `AdaptOp`, the slots at both ends of `u16` (the sentinel
/// `u16::MAX` among them) and the `spare` values at both ends of `i64`
/// and around zero, negative ones included, each with a buffer that
/// held a longer frame before.
#[test]
fn fixed_frame_writers_encode_every_op_slot_and_spare_as_encode_does() {
    let mut kept = encode(&Message::Join {
        id: 1,
        members: vec![2; 9],
    });
    let ops = [
        AdaptOp::AddOutlink,
        AdaptOp::DropOutlinks,
        AdaptOp::AddBackward,
    ];
    for op in ops {
        for slot in [0, 1, 2, 3, 255, 256, u16::MAX - 1, u16::MAX] {
            for spare in [i64::MIN, -2, -1, 0, 1, i64::MAX] {
                assert_fixed_writers_encode(&mut kept, 5, 9, slot, op, 3, 8, 7, spare);
            }
        }
    }
    assert_fixed_writers_encode(
        &mut kept,
        u64::MAX,
        u64::MAX,
        4,
        ops[0],
        u64::MAX,
        u64::MAX,
        u32::MAX,
        -1,
    );
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
