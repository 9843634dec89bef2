//! [`Codec`] implementations for the five applications' update and
//! state types — what lets a node's merge log live in a `shard-store`
//! WAL and come back after a crash, and what lets the out-of-core
//! replay tier spill cold checkpoint states through a store.
//!
//! The update encoding is a one-byte variant tag followed by the
//! variant's fields as fixed-width big-endian integers. State
//! encodings are length-prefixed field lists in each state's canonical
//! iteration order (key order for map-backed states, list order where
//! the order *is* the data), so equal states encode to equal bytes.
//! Updates are the only thing persisted *authoritatively* — spilled
//! states are a cache, rebuildable by replay — but every impl must
//! round-trip exactly; the tests fold each constructor through an
//! encode/decode cycle.

use crate::airline::{AirlineState, AirlineUpdate};
use crate::banking::{AccountId, BankState, BankUpdate};
use crate::dictionary::{DictState, DictUpdate};
use crate::inventory::{InvUpdate, InventoryState, ItemId, ItemState, Order, OrderId};
use crate::nameserver::{GroupId, Name, NsState, NsUpdate};
use crate::person::Person;
use shard_store::{ByteReader, Codec};

fn encode_seq<T>(
    count: usize,
    items: impl Iterator<Item = T>,
    out: &mut Vec<u8>,
    f: impl Fn(T, &mut Vec<u8>),
) {
    (count as u32).encode(out);
    let mut written = 0usize;
    for item in items {
        f(item, out);
        written += 1;
    }
    debug_assert_eq!(written, count, "sequence length must match its prefix");
}

fn decode_seq<T>(
    r: &mut ByteReader<'_>,
    f: impl Fn(&mut ByteReader<'_>) -> Option<T>,
) -> Option<Vec<T>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(f(r)?);
    }
    Some(out)
}

impl Codec for AirlineUpdate {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AirlineUpdate::Request(p) => {
                out.push(0);
                p.0.encode(out);
            }
            AirlineUpdate::Cancel(p) => {
                out.push(1);
                p.0.encode(out);
            }
            AirlineUpdate::MoveUp(p) => {
                out.push(2);
                p.0.encode(out);
            }
            AirlineUpdate::MoveDown(p) => {
                out.push(3);
                p.0.encode(out);
            }
            AirlineUpdate::Noop => out.push(4),
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => AirlineUpdate::Request(Person(r.u32()?)),
            1 => AirlineUpdate::Cancel(Person(r.u32()?)),
            2 => AirlineUpdate::MoveUp(Person(r.u32()?)),
            3 => AirlineUpdate::MoveDown(Person(r.u32()?)),
            4 => AirlineUpdate::Noop,
            _ => return None,
        })
    }
}

impl Codec for BankUpdate {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BankUpdate::Credit(a, n) => {
                out.push(0);
                a.0.encode(out);
                n.encode(out);
            }
            BankUpdate::Debit(a, n) => {
                out.push(1);
                a.0.encode(out);
                n.encode(out);
            }
            BankUpdate::Move(from, to, n) => {
                out.push(2);
                from.0.encode(out);
                to.0.encode(out);
                n.encode(out);
            }
            BankUpdate::Sweep(a) => {
                out.push(3);
                a.0.encode(out);
            }
            BankUpdate::Noop => out.push(4),
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => BankUpdate::Credit(AccountId(r.u32()?), r.u32()?),
            1 => BankUpdate::Debit(AccountId(r.u32()?), r.u32()?),
            2 => BankUpdate::Move(AccountId(r.u32()?), AccountId(r.u32()?), r.u32()?),
            3 => BankUpdate::Sweep(AccountId(r.u32()?)),
            4 => BankUpdate::Noop,
            _ => return None,
        })
    }
}

impl Codec for DictUpdate {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DictUpdate::Insert(k, v) => {
                out.push(0);
                k.encode(out);
                v.encode(out);
            }
            DictUpdate::Delete(k) => {
                out.push(1);
                k.encode(out);
            }
            DictUpdate::Noop => out.push(2),
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => DictUpdate::Insert(r.u32()?, r.u64()?),
            1 => DictUpdate::Delete(r.u32()?),
            2 => DictUpdate::Noop,
            _ => return None,
        })
    }
}

fn encode_order(o: &Order, out: &mut Vec<u8>) {
    o.id.0.encode(out);
    o.qty.encode(out);
}

fn decode_order(r: &mut ByteReader<'_>) -> Option<Order> {
    Some(Order {
        id: OrderId(r.u32()?),
        qty: r.u64()?,
    })
}

impl Codec for InvUpdate {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            InvUpdate::Commit(i, o) => {
                out.push(0);
                i.0.encode(out);
                encode_order(o, out);
            }
            InvUpdate::Backlog(i, o) => {
                out.push(1);
                i.0.encode(out);
                encode_order(o, out);
            }
            InvUpdate::Remove(i, o) => {
                out.push(2);
                i.0.encode(out);
                o.0.encode(out);
            }
            InvUpdate::Promote(i, o) => {
                out.push(3);
                i.0.encode(out);
                o.0.encode(out);
            }
            InvUpdate::Demote(i, o) => {
                out.push(4);
                i.0.encode(out);
                o.0.encode(out);
            }
            InvUpdate::AddStock(i, n) => {
                out.push(5);
                i.0.encode(out);
                n.encode(out);
            }
            InvUpdate::SubStock(i, n) => {
                out.push(6);
                i.0.encode(out);
                n.encode(out);
            }
            InvUpdate::Noop => out.push(7),
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => InvUpdate::Commit(ItemId(r.u32()?), decode_order(r)?),
            1 => InvUpdate::Backlog(ItemId(r.u32()?), decode_order(r)?),
            2 => InvUpdate::Remove(ItemId(r.u32()?), OrderId(r.u32()?)),
            3 => InvUpdate::Promote(ItemId(r.u32()?), OrderId(r.u32()?)),
            4 => InvUpdate::Demote(ItemId(r.u32()?), OrderId(r.u32()?)),
            5 => InvUpdate::AddStock(ItemId(r.u32()?), r.u64()?),
            6 => InvUpdate::SubStock(ItemId(r.u32()?), r.u64()?),
            7 => InvUpdate::Noop,
            _ => return None,
        })
    }
}

impl Codec for NsUpdate {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            NsUpdate::SetAddress(n, a) => {
                out.push(0);
                n.0.encode(out);
                a.encode(out);
            }
            NsUpdate::RemoveName(n) => {
                out.push(1);
                n.0.encode(out);
            }
            NsUpdate::AddMember(g, n) => {
                out.push(2);
                g.0.encode(out);
                n.0.encode(out);
            }
            NsUpdate::RemoveMember(g, n) => {
                out.push(3);
                g.0.encode(out);
                n.0.encode(out);
            }
            NsUpdate::Noop => out.push(4),
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => NsUpdate::SetAddress(Name(r.u32()?), r.u64()?),
            1 => NsUpdate::RemoveName(Name(r.u32()?)),
            2 => NsUpdate::AddMember(GroupId(r.u32()?), Name(r.u32()?)),
            3 => NsUpdate::RemoveMember(GroupId(r.u32()?), Name(r.u32()?)),
            4 => NsUpdate::Noop,
            _ => return None,
        })
    }
}

impl Codec for AirlineState {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(
            self.assigned().len(),
            self.assigned().iter(),
            out,
            |p, o| p.0.encode(o),
        );
        encode_seq(self.waiting().len(), self.waiting().iter(), out, |p, o| {
            p.0.encode(o)
        });
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let assigned = decode_seq(r, |r| Some(Person(r.u32()?)))?;
        let waiting = decode_seq(r, |r| Some(Person(r.u32()?)))?;
        Some(AirlineState::from_lists(assigned, waiting))
    }
}

impl Codec for BankState {
    fn encode(&self, out: &mut Vec<u8>) {
        let pairs = self.balances();
        encode_seq(pairs.len(), pairs, out, |(a, b), o| {
            a.0.encode(o);
            (b as u64).encode(o);
        });
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let pairs = decode_seq(r, |r| Some((AccountId(r.u32()?), r.u64()? as i64)))?;
        Some(BankState::with_balances(&pairs))
    }
}

impl Codec for DictState {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.len(), self.entries(), out, |(k, v), o| {
            k.encode(o);
            v.encode(o);
        });
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let pairs = decode_seq(r, |r| Some((r.u32()?, r.u64()?)))?;
        Some(DictState::with_entries(&pairs))
    }
}

impl Codec for InventoryState {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.items().len(), self.items().iter(), out, |it, o| {
            it.stock.encode(o);
            encode_seq(it.committed.len(), it.committed.iter(), o, |ord, o| {
                encode_order(ord, o)
            });
            encode_seq(it.backlog.len(), it.backlog.iter(), o, |ord, o| {
                encode_order(ord, o)
            });
        });
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let items = decode_seq(r, |r| {
            Some(ItemState {
                stock: r.u64()?,
                committed: decode_seq(r, decode_order)?,
                backlog: decode_seq(r, decode_order)?,
            })
        })?;
        Some(InventoryState::from_items(items))
    }
}

impl Codec for NsState {
    fn encode(&self, out: &mut Vec<u8>) {
        let regs: Vec<(Name, u64)> = self.registrations().collect();
        encode_seq(regs.len(), regs.into_iter(), out, |(n, a), o| {
            n.0.encode(o);
            a.encode(o);
        });
        (self.group_count() as u32).encode(out);
        for g in 0..self.group_count() {
            let members = self.members(GroupId(g as u32));
            encode_seq(members.len(), members.iter(), out, |n, o| n.0.encode(o));
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let regs = decode_seq(r, |r| Some((Name(r.u32()?), r.u64()?)))?;
        let groups = decode_seq(r, |r| decode_seq(r, |r| Some(Name(r.u32()?))))?;
        Some(NsState::with(&regs, groups))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<U: Codec + PartialEq + std::fmt::Debug>(cases: Vec<U>) {
        for u in cases {
            let bytes = u.to_vec();
            assert_eq!(U::from_slice(&bytes), Some(u), "round trip");
        }
    }

    #[test]
    fn airline_round_trips() {
        round_trip(vec![
            AirlineUpdate::Request(Person(0)),
            AirlineUpdate::Cancel(Person(u32::MAX)),
            AirlineUpdate::MoveUp(Person(7)),
            AirlineUpdate::MoveDown(Person(8)),
            AirlineUpdate::Noop,
        ]);
    }

    #[test]
    fn bank_round_trips() {
        round_trip(vec![
            BankUpdate::Credit(AccountId(1), 900_000),
            BankUpdate::Debit(AccountId(2), 300_000),
            BankUpdate::Move(AccountId(1), AccountId(2), 5),
            BankUpdate::Sweep(AccountId(3)),
            BankUpdate::Noop,
        ]);
    }

    #[test]
    fn dict_round_trips() {
        round_trip(vec![
            DictUpdate::Insert(9, u64::MAX),
            DictUpdate::Delete(0),
            DictUpdate::Noop,
        ]);
    }

    #[test]
    fn inventory_round_trips() {
        let order = Order {
            id: OrderId(42),
            qty: 17,
        };
        round_trip(vec![
            InvUpdate::Commit(ItemId(1), order),
            InvUpdate::Backlog(ItemId(2), order),
            InvUpdate::Remove(ItemId(3), OrderId(42)),
            InvUpdate::Promote(ItemId(4), OrderId(42)),
            InvUpdate::Demote(ItemId(5), OrderId(42)),
            InvUpdate::AddStock(ItemId(6), 1000),
            InvUpdate::SubStock(ItemId(7), 1),
            InvUpdate::Noop,
        ]);
    }

    #[test]
    fn nameserver_round_trips() {
        round_trip(vec![
            NsUpdate::SetAddress(Name(1), 0xfeed),
            NsUpdate::RemoveName(Name(2)),
            NsUpdate::AddMember(GroupId(3), Name(4)),
            NsUpdate::RemoveMember(GroupId(5), Name(6)),
            NsUpdate::Noop,
        ]);
    }

    #[test]
    fn states_round_trip() {
        round_trip(vec![
            AirlineState::new(),
            AirlineState::from_lists(vec![Person(1), Person(3)], vec![Person(2)]),
        ]);
        round_trip(vec![
            BankState::with_balances(&[]),
            BankState::with_balances(&[(AccountId(0), -250), (AccountId(9), i64::MAX)]),
        ]);
        round_trip(vec![
            DictState::default(),
            DictState::with_entries(&[(1, 10), (2, u64::MAX)]),
        ]);
        round_trip(vec![
            InventoryState::empty(0),
            InventoryState::from_items(vec![
                ItemState {
                    stock: 40,
                    committed: vec![Order {
                        id: OrderId(1),
                        qty: 3,
                    }],
                    backlog: vec![
                        Order {
                            id: OrderId(2),
                            qty: 9,
                        },
                        Order {
                            id: OrderId(3),
                            qty: 1,
                        },
                    ],
                },
                ItemState::default(),
            ]),
        ]);
        round_trip(vec![
            NsState::empty(0),
            NsState::with(
                &[(Name(4), 0xbeef), (Name(7), 1)],
                vec![vec![Name(4)], vec![], vec![Name(7), Name(9)]],
            ),
        ]);
    }

    #[test]
    fn state_junk_is_rejected() {
        assert_eq!(BankState::from_slice(&[0, 0, 0, 2, 0]), None, "short pairs");
        assert_eq!(DictState::from_slice(&[]), None, "empty");
        assert_eq!(
            AirlineState::from_slice(&AirlineState::new().to_vec()[..4]),
            None,
            "missing wait list"
        );
    }

    #[test]
    fn junk_is_rejected() {
        assert_eq!(AirlineUpdate::from_slice(&[9]), None, "unknown tag");
        assert_eq!(BankUpdate::from_slice(&[0, 1]), None, "truncated fields");
        assert_eq!(DictUpdate::from_slice(&[2, 0]), None, "trailing bytes");
        assert_eq!(InvUpdate::from_slice(&[]), None, "empty");
    }
}
