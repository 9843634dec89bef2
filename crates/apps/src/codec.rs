//! [`Codec`] implementations for the five applications' update types —
//! what lets a node's merge log live in a `shard-store` WAL and come
//! back after a crash, and what lets the out-of-core merge stream its
//! rows through a store.
//!
//! The encoding is a one-byte variant tag followed by the variant's
//! fields as fixed-width big-endian integers. Updates are the only
//! thing persisted — a state is rebuilt by replay — so every impl must
//! round-trip exactly; the tests fold each constructor through an
//! encode/decode cycle.

use crate::airline::AirlineUpdate;
use crate::banking::{AccountId, BankUpdate};
use crate::dictionary::DictUpdate;
use crate::inventory::{InvUpdate, ItemId, Order, OrderId};
use crate::nameserver::{GroupId, Name, NsUpdate};
use crate::person::Person;
use shard_store::{ByteReader, Codec};

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
    fn junk_is_rejected() {
        assert_eq!(AirlineUpdate::from_slice(&[9]), None, "unknown tag");
        assert_eq!(BankUpdate::from_slice(&[0, 1]), None, "truncated fields");
        assert_eq!(DictUpdate::from_slice(&[2, 0]), None, "trailing bytes");
        assert_eq!(InvUpdate::from_slice(&[]), None, "empty");
    }
}
