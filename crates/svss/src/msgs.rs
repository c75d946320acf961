//! Wire messages and shared types of the SVSS protocol.

use aft_field::{Fp, Poly};
use aft_sim::wire::{WireReader, WireWriter, KIND_SVSS_BASE};
use aft_sim::{PartyId, PartyMap, WireMessage};

/// Appends a field element's canonical 8-byte form.
fn put_fp(out: &mut Vec<u8>, v: Fp) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a canonical field element (non-canonical bytes are malformed).
fn get_fp(r: &mut WireReader<'_>) -> Option<Fp> {
    Fp::from_le_bytes(r.u64()?.to_le_bytes())
}

/// Appends a polynomial's canonical encoding.
fn put_poly(out: &mut Vec<u8>, p: &Poly) {
    p.encode_to(out);
}

/// Reads a canonical polynomial, advancing the reader past it.
fn get_poly(r: &mut WireReader<'_>) -> Option<Poly> {
    let (poly, used) = Poly::decode_from(r.peek_rest())?;
    r.skip(used)?;
    Some(poly)
}

/// The field point assigned to party `i`: `x_i = i + 1` (zero is reserved
/// for the secret).
pub fn party_point(p: PartyId) -> Fp {
    Fp::new(p.0 as u64 + 1)
}

/// Messages of the SVSS share phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShareMsg {
    /// Dealer → party `i`: its row `f_i(y) = F(x_i, y)` and column
    /// `g_i(x) = F(x, x_i)` of the sharing bivariate polynomial.
    Shares {
        /// The recipient's row polynomial.
        row: Poly,
        /// The recipient's column polynomial.
        col: Poly,
    },
    /// Party `i` → party `j`: the cross points `a = f_i(x_j)` and
    /// `b = g_i(x_j)`, which `j` checks against its own column and row.
    Cross {
        /// `f_i(x_j) = F(x_i, x_j)`.
        a: Fp,
        /// `g_i(x_j) = F(x_j, x_i)`.
        b: Fp,
    },
    /// Broadcast vote: "my cross-checks with `peer` succeeded".
    Ok(PartyId),
    /// Share-completion amplification (Bracha-style `t+1 / 2t+1`).
    Done,
}

impl WireMessage for ShareMsg {
    const KIND: u16 = KIND_SVSS_BASE;
    const KIND_NAME: &'static str = "svss-share-msg";

    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            ShareMsg::Shares { row, col } => {
                WireWriter::u8(out, 0);
                put_poly(out, row);
                put_poly(out, col);
            }
            ShareMsg::Cross { a, b } => {
                WireWriter::u8(out, 1);
                put_fp(out, *a);
                put_fp(out, *b);
            }
            ShareMsg::Ok(p) => {
                WireWriter::u8(out, 2);
                WireWriter::u32(out, p.0 as u32);
            }
            ShareMsg::Done => WireWriter::u8(out, 3),
        }
    }

    fn decode_body(bytes: &[u8]) -> Option<Self> {
        let mut r = WireReader::new(bytes);
        let msg = match r.u8()? {
            0 => ShareMsg::Shares {
                row: get_poly(&mut r)?,
                col: get_poly(&mut r)?,
            },
            1 => ShareMsg::Cross {
                a: get_fp(&mut r)?,
                b: get_fp(&mut r)?,
            },
            2 => ShareMsg::Ok(PartyId(r.u32()? as usize)),
            3 => ShareMsg::Done,
            _ => return None,
        };
        r.finish()?;
        Some(msg)
    }
}

/// Messages of the SVSS reconstruction phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecMsg {
    /// The sender's row evaluated at zero: its point of
    /// `h(x) = F(x, 0)` — input to online error correction.
    Sigma(Fp),
    /// Core members additionally reveal their full row and column for the
    /// clique fallback (faulty-dealer path).
    Reveal {
        /// Claimed row polynomial.
        row: Poly,
        /// Claimed column polynomial.
        col: Poly,
    },
}

impl WireMessage for RecMsg {
    const KIND: u16 = KIND_SVSS_BASE + 1;
    const KIND_NAME: &'static str = "svss-rec-msg";

    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            RecMsg::Sigma(v) => {
                WireWriter::u8(out, 0);
                put_fp(out, *v);
            }
            RecMsg::Reveal { row, col } => {
                WireWriter::u8(out, 1);
                put_poly(out, row);
                put_poly(out, col);
            }
        }
    }

    fn decode_body(bytes: &[u8]) -> Option<Self> {
        let mut r = WireReader::new(bytes);
        let msg = match r.u8()? {
            0 => RecMsg::Sigma(get_fp(&mut r)?),
            1 => RecMsg::Reveal {
                row: get_poly(&mut r)?,
                col: get_poly(&mut r)?,
            },
            _ => return None,
        };
        r.finish()?;
        Some(msg)
    }
}

/// A party's state after completing the share phase — the input to
/// [`SvssRec`](crate::SvssRec). Built once per dealing: the share phase's
/// output payload *is* the bundle, and whoever consumes it (a coin, the
/// reconstruction, an attack) holds that allocation as an `Arc`
/// ([`Payload::downcast_arc`](aft_sim::Payload::downcast_arc)) instead of
/// copying it.
#[derive(Debug, Clone)]
pub struct ShareBundle {
    /// The dealer of this SVSS instance.
    pub dealer: PartyId,
    /// The party this bundle belongs to.
    pub me: PartyId,
    /// The party's row `F(x_me, ·)`, if the dealer sent one (of valid
    /// degree).
    pub row: Option<Poly>,
    /// The party's column `F(·, x_me)`, if the dealer sent one.
    pub col: Option<Poly>,
    /// The agreed core set `C` (`|C| = n − t`), delivered by the dealer's
    /// A-Cast and edge-verified by at least one honest party.
    pub core: Vec<PartyId>,
    /// Cross points received from each peer `j` during the share phase:
    /// `(a, b)` where `a` claims `F(x_j, x_me)` and `b` claims
    /// `F(x_me, x_j)`. Used by reconstruction to detect self-contradiction
    /// (the shunning trigger).
    pub crosses: PartyMap<(Fp, Fp)>,
}

impl ShareBundle {
    /// Whether this party is a member of the agreed core.
    pub fn in_core(&self) -> bool {
        self.core.contains(&self.me)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn party_point_is_one_based() {
        assert_eq!(party_point(PartyId(0)), Fp::new(1));
        assert_eq!(party_point(PartyId(6)), Fp::new(7));
    }

    #[test]
    fn bundle_in_core() {
        let b = ShareBundle {
            dealer: PartyId(0),
            me: PartyId(2),
            row: None,
            col: None,
            core: vec![PartyId(1), PartyId(2)],
            crosses: PartyMap::new(),
        };
        assert!(b.in_core());
        let b2 = ShareBundle {
            me: PartyId(3),
            ..b
        };
        assert!(!b2.in_core());
    }
}
