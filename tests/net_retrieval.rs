//! Integration: the retrieval market over the discrete-event network —
//! BitSwap-style block exchange as message-passing processes with latency,
//! jitter and loss (paper §III-E: transfers happen off-chain; liveness
//! comes from retrying against any holder).

use fi_crypto::Hash256;
use fi_ipfs::dag::{dag_cids, export_bytes, import_bytes};
use fi_net::link::LinkModel;
use fi_net::world::{Ctx, Process, World};
use fi_store::{Blockstore, MemoryBlockstore};
use std::cell::RefCell;
use std::rc::Rc;

/// Wire messages of the toy retrieval protocol.
#[derive(Debug, Clone)]
enum Msg {
    /// Client asks for a block.
    Want(Hash256),
    /// Provider answers with the block bytes.
    Block(Vec<u8>),
}

/// A provider node serving blocks from its store.
struct ProviderNode {
    store: Rc<MemoryBlockstore>,
}

impl Process<Msg> for ProviderNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: usize, msg: Msg) {
        if let Msg::Want(cid) = msg {
            if let Some(block) = self.store.get(&cid).unwrap() {
                let bytes = block.len() as u64;
                ctx.send(from, Msg::Block(block.to_vec()), bytes);
            }
        }
    }
}

/// A client fetching a want-list with periodic retry (loss tolerance).
struct ClientNode {
    providers: Vec<usize>,
    wanted: Vec<Hash256>,
    store: Rc<MemoryBlockstore>,
    next_provider: usize,
    done: Rc<RefCell<bool>>,
}

const RETRY_TAG: u64 = 1;

impl ClientNode {
    fn request_all(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let missing: Vec<Hash256> = self
            .wanted
            .iter()
            .filter(|c| !self.store.has(c).unwrap())
            .copied()
            .collect();
        if missing.is_empty() {
            *self.done.borrow_mut() = true;
            return;
        }
        for cid in missing {
            // Round-robin across providers; retries hit someone else.
            let target = self.providers[self.next_provider % self.providers.len()];
            self.next_provider += 1;
            ctx.send(target, Msg::Want(cid), 40);
        }
        ctx.set_timer(500, RETRY_TAG);
    }
}

impl Process<Msg> for ClientNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.request_all(ctx);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: usize, msg: Msg) {
        if let Msg::Block(bytes) = msg {
            // put() verifies nothing by itself, but content addressing
            // means a corrupted block simply stores under a different CID
            // and stays "missing" — same effect as rejection.
            self.store.put(&bytes).unwrap();
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        if tag == RETRY_TAG && !*self.done.borrow() {
            self.request_all(ctx);
        }
    }
}

fn run_retrieval(loss: f64, seed: u64) -> (bool, u64, u64) {
    // Build the file and the provider stores.
    let origin = Rc::new(MemoryBlockstore::new());
    let payload: Vec<u8> = (0..30_000u32).map(|i| (i % 249) as u8).collect();
    let root = import_bytes(&*origin, &payload, 800).unwrap();
    let wanted = dag_cids(&*origin, root).unwrap();

    let mut world: World<Msg> = World::new(LinkModel::lossy(loss), seed);
    let p1 = world.add(ProviderNode {
        store: Rc::clone(&origin),
    });
    let p2 = world.add(ProviderNode {
        store: Rc::clone(&origin),
    });

    let client_store = Rc::new(MemoryBlockstore::new());
    let done = Rc::new(RefCell::new(false));
    world.add(ClientNode {
        providers: vec![p1, p2],
        wanted,
        store: Rc::clone(&client_store),
        next_provider: 0,
        done: Rc::clone(&done),
    });

    world.run_until(200_000);
    let complete = export_bytes(&*client_store, root)
        .map(|got| got == payload)
        .unwrap_or(false);
    (complete, world.messages_sent(), world.messages_lost())
}

#[test]
fn retrieval_completes_over_reliable_links() {
    let (complete, sent, lost) = run_retrieval(0.0, 1);
    assert!(complete);
    assert_eq!(lost, 0);
    // One round trip per block plus the want messages.
    assert!(sent >= 2 * 39, "sent {sent}");
}

#[test]
fn retrieval_survives_heavy_loss_through_retries() {
    let (complete, sent, lost) = run_retrieval(0.4, 2);
    assert!(complete, "retries must eventually deliver every block");
    assert!(lost > 0, "the lossy link dropped something");
    // Loss costs extra traffic.
    let (_, sent_clean, _) = run_retrieval(0.0, 3);
    assert!(sent > sent_clean, "{sent} vs {sent_clean}");
}

#[test]
fn deterministic_network_replay() {
    assert_eq!(run_retrieval(0.2, 9), run_retrieval(0.2, 9));
    assert_ne!(run_retrieval(0.2, 9).1, run_retrieval(0.2, 10).1);
}
