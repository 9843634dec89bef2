//! A node thread's inbox: a FIFO queue behind a [`Mutex`] that any
//! thread may send into and one thread — its owner — drains and sleeps
//! on with [`thread::park`] / [`thread::park_timeout`], without spinning.
//!
//! A send to an awake owner makes no syscall: it unparks only when the
//! owner has said, under the queue's lock, that it is about to park —
//! and the owner says so only after seeing the queue empty under that
//! same lock. A send therefore lands either before that look, which
//! then sees it, or after the flag is up, in which case it unparks; an
//! unpark that precedes the owner's park makes the park return at once.
//! No wake-up is lost.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};
use std::time::Duration;

/// One owner's FIFO of `T`s; see the module doc.
pub(crate) struct Inbox<T> {
    slot: Mutex<Slot<T>>,
    /// The thread that parks on this inbox: the first to announce a
    /// park. Set before the flag it is read under, so a sender that
    /// sees the flag finds it.
    owner: OnceLock<Thread>,
}

struct Slot<T> {
    queue: VecDeque<T>,
    /// The owner saw the queue empty and is about to park, or parked.
    parking: bool,
}

impl<T> Inbox<T> {
    pub(crate) fn new() -> Self {
        Inbox {
            slot: Mutex::new(Slot {
                queue: VecDeque::new(),
                parking: false,
            }),
            owner: OnceLock::new(),
        }
    }

    /// Nothing under the lock can panic half-way, so a poisoned lock
    /// (a panicking peer) still guards a whole queue.
    fn lock(&self) -> MutexGuard<'_, Slot<T>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `msg` behind everything sent before it, and wakes the
    /// owner if it announced a park.
    pub(crate) fn send(&self, msg: T) {
        let wake = {
            let mut slot = self.lock();
            slot.queue.push_back(msg);
            std::mem::take(&mut slot.parking)
        };
        if wake {
            self.owner
                .get()
                .expect("a park is announced by a registered owner")
                .unpark();
        }
    }

    /// Hands everything queued, in order, to the owner: one swap under
    /// one lock with the owner's emptied buffer `into`, so both keep
    /// their capacity and a steady run allocates nothing here.
    pub(crate) fn drain_into(&self, into: &mut VecDeque<T>) {
        debug_assert!(into.is_empty(), "the owner drains into an empty buffer");
        let mut slot = self.lock();
        slot.parking = false;
        std::mem::swap(&mut slot.queue, into);
    }

    /// The owner's half of the handshake: registers the calling thread
    /// as the owner and raises the parking flag, unless something is
    /// already queued (`false`: drain instead of parking).
    fn announce_park(&self) -> bool {
        self.owner.get_or_init(thread::current);
        let mut slot = self.lock();
        slot.parking = slot.queue.is_empty();
        slot.parking
    }

    /// Parks the owner until a send wakes it, `timeout` elapses (never,
    /// if `None`) or the park returns spuriously — or returns at once if
    /// something is queued. The caller drains next either way.
    pub(crate) fn wait(&self, timeout: Option<Duration>) {
        if self.announce_park() {
            match timeout {
                Some(d) => thread::park_timeout(d),
                None => thread::park(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::{Arc, Barrier};
    use std::time::Instant;

    /// Drains until `n` items came out, parking in between; gives up
    /// (returning what it has) after 10 s so a lost wake-up fails the
    /// test instead of hanging it.
    fn receive<T>(inbox: &Inbox<T>, n: usize) -> Vec<T> {
        let (mut got, mut batch) = (Vec::new(), VecDeque::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < n && Instant::now() < deadline {
            inbox.drain_into(&mut batch);
            got.extend(batch.drain(..));
            if got.len() < n {
                inbox.wait(Some(Duration::from_millis(100)));
            }
        }
        got
    }

    #[test]
    fn several_senders_each_arrive_in_order() {
        const SENDERS: usize = 3;
        const EACH: usize = 2_000;
        let inbox = Inbox::new();
        let got = thread::scope(|s| {
            for from in 0..SENDERS {
                let inbox = &inbox;
                s.spawn(move || (0..EACH).for_each(|i| inbox.send((from, i))));
            }
            receive(&inbox, SENDERS * EACH)
        });
        assert_eq!(got.len(), SENDERS * EACH);
        for from in 0..SENDERS {
            let seq: Vec<usize> = got
                .iter()
                .filter(|(f, _)| *f == from)
                .map(|&(_, i)| i)
                .collect();
            assert_eq!(seq, (0..EACH).collect::<Vec<_>>(), "sender {from}");
        }
    }

    #[test]
    fn a_send_wakes_an_owner_parked_without_deadline() {
        let inbox = Arc::new(Inbox::new());
        let (done_tx, done_rx) = mpsc::channel();
        let owner = {
            let inbox = Arc::clone(&inbox);
            thread::spawn(move || {
                let mut got = VecDeque::new();
                while got.is_empty() {
                    inbox.wait(None);
                    inbox.drain_into(&mut got);
                }
                done_tx.send(got.pop_front()).unwrap();
            })
        };
        // Send only once the owner has found the inbox empty and
        // announced its park.
        while !inbox.lock().parking {
            thread::yield_now();
        }
        inbox.send(7u32);
        let got = done_rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(got, Ok(Some(7)), "the parked owner was never woken");
        owner.join().unwrap();
    }

    #[test]
    fn a_send_between_the_announcement_and_the_park_is_not_lost() {
        let inbox = Arc::new(Inbox::new());
        let announced = Arc::new(Barrier::new(2));
        let sent = Arc::new(Barrier::new(2));
        let (done_tx, done_rx) = mpsc::channel();
        let owner = {
            let (inbox, announced, sent) = (Arc::clone(&inbox), announced.clone(), sent.clone());
            thread::spawn(move || {
                assert!(inbox.announce_park(), "nothing is queued yet");
                announced.wait();
                // The send lands here: after the look, before the park.
                sent.wait();
                thread::park();
                let mut got = VecDeque::new();
                inbox.drain_into(&mut got);
                done_tx.send(got.pop_front()).unwrap();
            })
        };
        announced.wait();
        inbox.send(11u32);
        sent.wait();
        let got = done_rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(got, Ok(Some(11)), "the wake-up was lost");
        owner.join().unwrap();
    }

    #[test]
    fn a_send_before_the_announcement_keeps_the_owner_awake() {
        let inbox = Inbox::new();
        inbox.send(1u8);
        assert!(!inbox.announce_park(), "mail is queued: drain, not park");
        let t0 = Instant::now();
        inbox.wait(Some(Duration::from_secs(10)));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "parked on a full inbox"
        );
        let mut got = VecDeque::new();
        inbox.drain_into(&mut got);
        assert_eq!(got, [1]);
    }

    #[test]
    fn quit_after_batches_comes_out_last() {
        #[derive(Debug, PartialEq)]
        enum Msg {
            Batch(usize),
            Quit,
        }
        let inbox = Inbox::new();
        // The owner drains while two peers send; a coordinator sends the
        // `Quit` at the quiet point, once both peers are done.
        let got = thread::scope(|s| {
            let inbox = &inbox;
            let senders: Vec<_> = (0..2)
                .map(|from| {
                    s.spawn(move || (0..500).for_each(|i| inbox.send(Msg::Batch(from * 500 + i))))
                })
                .collect();
            s.spawn(move || {
                senders.into_iter().for_each(|h| h.join().unwrap());
                inbox.send(Msg::Quit);
            });
            receive(inbox, 1_001)
        });
        assert_eq!(got.len(), 1_001);
        assert_eq!(got.last(), Some(&Msg::Quit));
        assert!(got[..1_000].iter().all(|m| matches!(m, Msg::Batch(_))));
    }
}
