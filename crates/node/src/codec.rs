//! Hand-rolled wire codec for the ERT node protocol.
//!
//! Every frame is `[magic "ER"][version u8][tag u8][len u32 BE][payload]`
//! with all multi-byte integers big-endian and vectors encoded as a
//! `u32` count followed by the items. The codec is deliberately
//! dependency-free and fully deterministic: the same [`Message`] always
//! encodes to the same bytes, so byte-identity assertions on captured
//! wire traffic are meaningful.
//!
//! The decoder is total: every malformed input — truncation, bad magic,
//! unknown tags, length mismatches, oversized counts, out-of-range enum
//! discriminants, trailing bytes — is rejected with a typed
//! [`CodecError`]. The crate root denies `clippy::unwrap_used`,
//! `expect_used`, `panic`, `unreachable`, `todo` and `unimplemented`, and
//! this module — the one parser of untrusted bytes — adds
//! `clippy::indexing_slicing` below: outside tests it reads through
//! `get`/`get_mut`, never `buf[i]`.

#![deny(clippy::indexing_slicing)]

use std::fmt;

/// Two-byte frame magic.
pub const MAGIC: [u8; 2] = *b"ER";
/// Current protocol version carried in every frame header (2: no
/// `AdaptOp` byte 0, and `AddOutlink` answers "present" or "added").
pub const VERSION: u8 = 2;
/// Fixed header length: magic (2) + version (1) + tag (1) + len (4).
pub const HEADER_LEN: usize = 8;
/// Upper bound on the declared payload length of a single frame.
pub const MAX_FRAME: usize = 1 << 20;
/// Upper bound on any encoded vector count (ids per message).
pub const MAX_COUNT: u32 = 1 << 16;

/// Terminal status of a lookup, carried on [`Message::LookupReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupStatus {
    /// The lookup reached the key's owner.
    Found,
    /// The lookup exhausted its hop budget and was dropped.
    Dropped,
    /// The lookup could not make progress (no owner or no candidates).
    Failed,
}

/// Indegree-adaptation sub-operation carried on [`Message::AdaptIndegree`]
/// — the shared node's link operation, put on the wire as is.
///
/// Replies reuse [`Message::LoadReport`] with the responder's post-op
/// state; `AddOutlink` adds only if absent and answers with `load` set
/// to 1 for "was already present", 0 for "added".
pub use ert_minidht::AdaptOp;

/// A wire message. See DESIGN.md "Wire Protocol & Live Node" for the
/// taxonomy and which transport lane (lossy datagram vs reliable RPC)
/// each message rides on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Node `id` joins, advertising its current membership view.
    Join {
        /// Joining node's ring identifier.
        id: u64,
        /// The joiner's membership view (sorted ring ids).
        members: Vec<u64>,
    },
    /// Periodic anti-entropy exchange of membership views.
    Stabilize {
        /// Monotone stabilize round counter of the sender.
        round: u32,
        /// The sender's membership view (sorted ring ids).
        members: Vec<u64>,
    },
    /// A lookup in flight, forwarded hop by hop.
    Lookup {
        /// Platform-unique query identifier.
        query: u64,
        /// Target key on the ring.
        key: u64,
        /// Hops taken so far.
        hops: u32,
        /// Client retry attempt (0 for the first send).
        attempts: u32,
        /// Bit 0: numeric-mode fallback engaged (geometry exhausted).
        flags: u8,
        /// Overloaded nodes to route around (sorted).
        avoid: Vec<u64>,
    },
    /// Terminal answer for a lookup, sent to the issuing client.
    LookupReply {
        /// Query identifier this reply resolves.
        query: u64,
        /// Terminal status.
        status: LookupStatus,
        /// Owner that served the key (0 unless `Found`).
        owner: u64,
        /// Total hops taken.
        hops: u32,
    },
    /// Load probe issued while choosing among next-hop candidates.
    ProbeLoad {
        /// Correlates the probe with its [`Message::LoadReport`].
        token: u64,
    },
    /// Reply to [`Message::ProbeLoad`] and to [`Message::AdaptIndegree`].
    LoadReport {
        /// Token of the probe being answered.
        token: u64,
        /// Instantaneous queue + in-service load.
        load: u64,
        /// Evaluated capacity (units of service slots).
        capacity: u64,
        /// Current indegree (backward-finger count).
        indegree: u32,
        /// Spare indegree: `d_max - indegree` (may be negative).
        spare: i64,
    },
    /// One step of the indegree-adaptation protocol (Algorithm 3).
    AdaptIndegree {
        /// Ring id of the adapting node issuing the op.
        from: u64,
        /// Slot the op applies to (`u16::MAX` = successor slot).
        slot: u16,
        /// The sub-operation.
        op: AdaptOp,
    },
    /// Node `id` announces a graceful departure.
    Leave {
        /// Departing node's ring identifier.
        id: u64,
    },
}

const TAG_JOIN: u8 = 1;
const TAG_STABILIZE: u8 = 2;
const TAG_LOOKUP: u8 = 3;
const TAG_LOOKUP_REPLY: u8 = 4;
const TAG_PROBE_LOAD: u8 = 5;
const TAG_LOAD_REPORT: u8 = 6;
const TAG_ADAPT_INDEGREE: u8 = 7;
const TAG_LEAVE: u8 = 8;

/// Typed decode failure. Every malformed frame maps onto exactly one of
/// these; the decoder never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the declared structure was complete.
    Truncated,
    /// First two bytes were not [`MAGIC`].
    BadMagic,
    /// Header carried an unsupported protocol version.
    BadVersion(u8),
    /// Header carried a tag outside the known message set.
    UnknownTag(u8),
    /// Declared payload length exceeds [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// Declared payload length disagrees with the bytes present.
    LengthMismatch {
        /// Length the header declared.
        declared: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// A vector count exceeded [`MAX_COUNT`].
    CountTooLarge(u32),
    /// An enum field carried an out-of-range discriminant.
    BadEnum {
        /// Which field rejected the discriminant.
        field: &'static str,
        /// The rejected raw value.
        value: u8,
    },
    /// Payload bytes remained after the message was fully decoded.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            CodecError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::FrameTooLarge(n) => write!(f, "declared payload length {n} exceeds cap"),
            CodecError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "declared payload length {declared} but {actual} bytes present"
                )
            }
            CodecError::CountTooLarge(n) => write!(f, "vector count {n} exceeds cap"),
            CodecError::BadEnum { field, value } => {
                write!(f, "out-of-range discriminant {value} for {field}")
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bounds-checked big-endian reader over a borrowed frame.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        let bytes = self.take(1)?;
        bytes.first().copied().ok_or(CodecError::Truncated)
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        let bytes = self.take(2)?;
        let mut raw = [0u8; 2];
        raw.copy_from_slice(bytes);
        Ok(u16::from_be_bytes(raw))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let bytes = self.take(4)?;
        let mut raw = [0u8; 4];
        raw.copy_from_slice(bytes);
        Ok(u32::from_be_bytes(raw))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let bytes = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(u64::from_be_bytes(raw))
    }

    fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.u64()? as i64)
    }

    /// The message ended: no payload byte may be left.
    fn end(&self) -> Result<(), CodecError> {
        if self.pos != self.buf.len() {
            return Err(CodecError::TrailingBytes(
                self.buf.len().saturating_sub(self.pos),
            ));
        }
        Ok(())
    }

    fn ids(&mut self) -> Result<Vec<u64>, CodecError> {
        let count = self.u32()?;
        if count > MAX_COUNT {
            return Err(CodecError::CountTooLarge(count));
        }
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            out.push(self.u64()?);
        }
        Ok(out)
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_ids(out: &mut Vec<u8>, ids: &[u64]) {
    // Counts are bounded by MAX_COUNT at decode; encoders never build
    // vectors anywhere near the cap (cluster sizes are tiny), so the
    // saturating cast can only be observed by a hostile caller and then
    // simply produces a frame the peer rejects.
    let count = u32::try_from(ids.len()).unwrap_or(u32::MAX);
    put_u32(out, count);
    for id in ids {
        put_u64(out, *id);
    }
}

fn status_byte(status: LookupStatus) -> u8 {
    match status {
        LookupStatus::Found => 0,
        LookupStatus::Dropped => 1,
        LookupStatus::Failed => 2,
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

fn op_byte(op: AdaptOp) -> u8 {
    match op {
        AdaptOp::AddOutlink => 1,
        AdaptOp::DropOutlinks => 2,
        AdaptOp::AddBackward => 3,
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

fn tag_of(msg: &Message) -> u8 {
    match msg {
        Message::Join { .. } => TAG_JOIN,
        Message::Stabilize { .. } => TAG_STABILIZE,
        Message::Lookup { .. } => TAG_LOOKUP,
        Message::LookupReply { .. } => TAG_LOOKUP_REPLY,
        Message::ProbeLoad { .. } => TAG_PROBE_LOAD,
        Message::LoadReport { .. } => TAG_LOAD_REPORT,
        Message::AdaptIndegree { .. } => TAG_ADAPT_INDEGREE,
        Message::Leave { .. } => TAG_LEAVE,
    }
}

/// Exact frame length of `msg`: header, fixed payload, 4-byte count
/// plus 8 bytes per listed id.
fn encoded_len(msg: &Message) -> usize {
    let ids = |ids: &[u64]| 4 + 8 * ids.len();
    HEADER_LEN
        + match msg {
            Message::Join { members, .. } => 8 + ids(members),
            Message::Stabilize { members, .. } => 4 + ids(members),
            Message::Lookup { avoid, .. } => 8 + 8 + 4 + 4 + 1 + ids(avoid),
            Message::LookupReply { .. } => 8 + 1 + 8 + 4,
            Message::ProbeLoad { .. } => PROBE_LOAD_LEN,
            Message::Leave { .. } => 8,
            Message::LoadReport { .. } => LOAD_REPORT_LEN,
            Message::AdaptIndegree { .. } => ADAPT_INDEGREE_LEN,
        }
}

/// Encodes a message into a complete frame (header + payload), in one
/// allocation of exactly the frame's length.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(msg, &mut out);
    out
}

/// [`encode`] into a buffer the caller keeps; `out` is cleared first
/// and grows only if it is shorter than the frame.
pub(crate) fn encode_into(msg: &Message, out: &mut Vec<u8>) {
    let len = encoded_len(msg);
    out.clear();
    out.reserve_exact(len);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(tag_of(msg));
    put_u32(out, (len - HEADER_LEN) as u32);
    match msg {
        Message::Join { id, members } => {
            put_u64(out, *id);
            put_ids(out, members);
        }
        Message::Stabilize { round, members } => {
            put_u32(out, *round);
            put_ids(out, members);
        }
        Message::Lookup {
            query,
            key,
            hops,
            attempts,
            flags,
            avoid,
        } => {
            put_u64(out, *query);
            put_u64(out, *key);
            put_u32(out, *hops);
            put_u32(out, *attempts);
            out.push(*flags);
            put_ids(out, avoid);
        }
        Message::LookupReply {
            query,
            status,
            owner,
            hops,
        } => {
            put_u64(out, *query);
            out.push(status_byte(*status));
            put_u64(out, *owner);
            put_u32(out, *hops);
        }
        Message::ProbeLoad { token } => {
            put_u64(out, *token);
        }
        Message::LoadReport {
            token,
            load,
            capacity,
            indegree,
            spare,
        } => {
            put_u64(out, *token);
            put_u64(out, *load);
            put_u64(out, *capacity);
            put_u32(out, *indegree);
            put_u64(out, *spare as u64);
        }
        Message::AdaptIndegree { from, slot, op } => {
            put_u64(out, *from);
            put_u16(out, *slot);
            out.push(op_byte(*op));
        }
        Message::Leave { id } => {
            put_u64(out, *id);
        }
    }
}

/// Payload length of a `ProbeLoad`: the token.
const PROBE_LOAD_LEN: usize = 8;
/// Payload length of a `LoadReport`: token, load, capacity, indegree,
/// spare.
const LOAD_REPORT_LEN: usize = 8 + 8 + 8 + 4 + 8;
/// Payload length of an `AdaptIndegree`: from, slot, op.
const ADAPT_INDEGREE_LEN: usize = 8 + 2 + 1;

/// The header of a frame tagged `tag` with a payload of `len` bytes.
#[inline]
fn header(tag: u8, len: usize) -> [u8; HEADER_LEN] {
    let [a, b, c, d] = (len as u32).to_be_bytes();
    [MAGIC[0], MAGIC[1], VERSION, tag, a, b, c, d]
}

/// Replaces what `out` holds with `frame`, growing `out` only if it is
/// shorter.
#[inline]
fn put_frame(out: &mut Vec<u8>, frame: &[u8]) {
    out.clear();
    out.extend_from_slice(frame);
}

/// Writes the `ProbeLoad` frame of `token` into `out`, a buffer the
/// caller keeps: the bytes of `encode(&Message::ProbeLoad { token })`,
/// built on the stack from the header and the one field and copied
/// once, with no [`Message`] built. The fixed-size messages are the
/// RPCs every hop and every Algorithm 1 ask sends, so they skip
/// [`encode`]'s match on the variant and its sizing.
#[inline]
pub fn encode_probe_load(token: u64, out: &mut Vec<u8>) {
    let mut frame = [0u8; HEADER_LEN + PROBE_LOAD_LEN];
    frame[..HEADER_LEN].copy_from_slice(&header(TAG_PROBE_LOAD, PROBE_LOAD_LEN));
    frame[8..].copy_from_slice(&token.to_be_bytes());
    put_frame(out, &frame);
}

/// Writes the `AdaptIndegree` frame of `(from, slot, op)` into `out`,
/// as [`encode_probe_load`] does: the bytes of
/// `encode(&Message::AdaptIndegree { from, slot, op })`.
#[inline]
pub fn encode_adapt_indegree(from: u64, slot: u16, op: AdaptOp, out: &mut Vec<u8>) {
    let mut frame = [0u8; HEADER_LEN + ADAPT_INDEGREE_LEN];
    frame[..HEADER_LEN].copy_from_slice(&header(TAG_ADAPT_INDEGREE, ADAPT_INDEGREE_LEN));
    frame[8..16].copy_from_slice(&from.to_be_bytes());
    frame[16..18].copy_from_slice(&slot.to_be_bytes());
    frame[18] = op_byte(op);
    put_frame(out, &frame);
}

/// Writes the `LoadReport` frame of its five fields into `out`, as
/// [`encode_probe_load`] does: the bytes of
/// `encode(&Message::LoadReport { token, load, capacity, indegree, spare })`.
#[inline]
pub fn encode_load_report(
    token: u64,
    load: u64,
    capacity: u64,
    indegree: u32,
    spare: i64,
    out: &mut Vec<u8>,
) {
    let mut frame = [0u8; HEADER_LEN + LOAD_REPORT_LEN];
    frame[..HEADER_LEN].copy_from_slice(&header(TAG_LOAD_REPORT, LOAD_REPORT_LEN));
    frame[8..16].copy_from_slice(&token.to_be_bytes());
    frame[16..24].copy_from_slice(&load.to_be_bytes());
    frame[24..32].copy_from_slice(&capacity.to_be_bytes());
    frame[32..36].copy_from_slice(&indegree.to_be_bytes());
    frame[36..].copy_from_slice(&spare.to_be_bytes());
    put_frame(out, &frame);
}

/// Decodes one complete frame. Rejects every malformed input with a
/// typed [`CodecError`]; never panics.
///
/// Each arm reads its fields into locals in wire order, checks that no
/// payload byte is left, and only then builds the message, in the
/// result itself. Building the message first and then moving it into
/// `Ok` would write it field by field and read it back whole at once, a
/// store-forwarding stall on every frame. Fields are read and checked
/// in wire order either way, so each malformed frame gets one error
/// whichever way the message is built (`codec_props.rs` holds `decode`
/// to a decoder that builds first).
pub fn decode(frame: &[u8]) -> Result<Message, CodecError> {
    decode_inline(frame)
}

/// [`decode`], always inlined into its caller: for one that reads only
/// a few fields of the result, which then come from registers rather
/// than from a result just written to memory field by field and read
/// back in wider loads. A caller that keeps the whole message gains
/// nothing by it, and one that hands it on whole (to `black_box`, say)
/// pays that stall in its own frame, so it calls [`decode`].
#[inline(always)]
pub(crate) fn decode_inline(frame: &[u8]) -> Result<Message, CodecError> {
    let mut r = Reader::new(frame);
    let magic = r.take(2)?;
    if magic != MAGIC {
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
    match tag {
        TAG_JOIN => {
            let id = r.u64()?;
            let members = r.ids()?;
            r.end()?;
            Ok(Message::Join { id, members })
        }
        TAG_STABILIZE => {
            let round = r.u32()?;
            let members = r.ids()?;
            r.end()?;
            Ok(Message::Stabilize { round, members })
        }
        TAG_LOOKUP => {
            let query = r.u64()?;
            let key = r.u64()?;
            let hops = r.u32()?;
            let attempts = r.u32()?;
            let flags = r.u8()?;
            let avoid = r.ids()?;
            r.end()?;
            Ok(Message::Lookup {
                query,
                key,
                hops,
                attempts,
                flags,
                avoid,
            })
        }
        TAG_LOOKUP_REPLY => {
            let query = r.u64()?;
            let status = status_from(r.u8()?)?;
            let owner = r.u64()?;
            let hops = r.u32()?;
            r.end()?;
            Ok(Message::LookupReply {
                query,
                status,
                owner,
                hops,
            })
        }
        TAG_PROBE_LOAD => {
            let token = r.u64()?;
            r.end()?;
            Ok(Message::ProbeLoad { token })
        }
        TAG_LOAD_REPORT => {
            let token = r.u64()?;
            let load = r.u64()?;
            let capacity = r.u64()?;
            let indegree = r.u32()?;
            let spare = r.i64()?;
            r.end()?;
            Ok(Message::LoadReport {
                token,
                load,
                capacity,
                indegree,
                spare,
            })
        }
        TAG_ADAPT_INDEGREE => {
            let from = r.u64()?;
            let slot = r.u16()?;
            let op = op_from(r.u8()?)?;
            r.end()?;
            Ok(Message::AdaptIndegree { from, slot, op })
        }
        TAG_LEAVE => {
            let id = r.u64()?;
            r.end()?;
            Ok(Message::Leave { id })
        }
        other => Err(CodecError::UnknownTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_variant() {
        let msgs = vec![
            Message::Join {
                id: 7,
                members: vec![1, 2, 3],
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
                avoid: vec![4, 8],
            },
            Message::LookupReply {
                query: 1,
                status: LookupStatus::Found,
                owner: 99,
                hops: 4,
            },
            Message::ProbeLoad { token: 12 },
            Message::LoadReport {
                token: 12,
                load: 3,
                capacity: 8,
                indegree: 5,
                spare: -2,
            },
            Message::AdaptIndegree {
                from: 7,
                slot: u16::MAX,
                op: AdaptOp::AddBackward,
            },
            Message::Leave { id: 7 },
        ];
        for msg in msgs {
            let frame = encode(&msg);
            assert_eq!(encoded_len(&msg), frame.len());
            assert_eq!(decode(&frame).unwrap(), msg);
        }
    }

    #[test]
    fn rejects_bad_magic_version_tag() {
        let mut frame = encode(&Message::Leave { id: 1 });
        frame[0] = b'X';
        assert_eq!(decode(&frame), Err(CodecError::BadMagic));
        let mut frame = encode(&Message::Leave { id: 1 });
        frame[2] = 9;
        assert_eq!(decode(&frame), Err(CodecError::BadVersion(9)));
        let mut frame = encode(&Message::Leave { id: 1 });
        frame[3] = 0;
        assert_eq!(decode(&frame), Err(CodecError::UnknownTag(0)));
    }

    #[test]
    fn rejects_length_mismatch_and_trailing() {
        let mut frame = encode(&Message::ProbeLoad { token: 5 });
        frame.push(0);
        assert!(matches!(
            decode(&frame),
            Err(CodecError::LengthMismatch { .. })
        ));
        // Declared length padded to include junk the message does not use.
        let mut frame = encode(&Message::ProbeLoad { token: 5 });
        frame.push(0xAB);
        let declared = (frame.len() - HEADER_LEN) as u32;
        frame[4..8].copy_from_slice(&declared.to_be_bytes());
        assert_eq!(decode(&frame), Err(CodecError::TrailingBytes(1)));
    }
}
