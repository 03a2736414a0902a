//! Session-driven workload generation.
//!
//! B2W's traces replay customers browsing, filling carts, and checking out.
//! Without the proprietary logs, this generator synthesises statistically
//! equivalent *valid* transaction sequences: every emitted transaction
//! succeeds against the database state produced by the ones before it
//! (except deliberate business aborts such as reserving scarce stock).
//! Keys are random hex identifiers, giving the near-uniform partition
//! access and data distribution the paper measures in §8.1.

use crate::procedures::*;
use crate::schema::tables;
use pstore_dbms::txn::{Procedure, TxnCtx, TxnError, TxnOutput};
use pstore_dbms::value::{Key, KeyValue, Row, Text, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;

/// Generator tuning.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// RNG seed; equal seeds give identical transaction streams.
    pub seed: u64,
    /// Number of distinct SKUs in the stock database.
    pub num_skus: usize,
    /// Initial available quantity per SKU (large = rare business aborts).
    pub initial_stock: i64,
    /// Number of pre-existing open carts loaded at start-up.
    pub initial_carts: usize,
    /// Lines per pre-existing cart.
    pub lines_per_initial_cart: usize,
    /// Maximum lines a generated cart accumulates before checkout.
    pub max_lines_per_cart: usize,
    /// Probability a cart session ends in checkout (vs abandonment).
    pub checkout_probability: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 0xB2D1,
            num_skus: 10_000,
            initial_stock: 1_000_000,
            initial_carts: 2_000,
            lines_per_initial_cart: 3,
            max_lines_per_cart: 8,
            checkout_probability: 0.35,
        }
    }
}

/// Loader procedure: seeds a STOCK row (there is deliberately no Table 4
/// procedure for this — inventory arrives out of band in production).
#[derive(Debug, Clone)]
pub struct SeedStock {
    /// SKU (partitioning key).
    pub sku: Text,
    /// Initial available quantity.
    pub quantity: i64,
}

impl Procedure for SeedStock {
    fn name(&self) -> &'static str {
        "SeedStock"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.sku.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        ctx.put(
            tables::STOCK,
            Key::str(self.sku.clone()),
            Row::new([
                Value::Str(self.sku.clone()),
                Value::Int(self.quantity),
                Value::Int(0),
                Value::Int(0),
                Value::Str("WH-1".into()),
            ]),
        );
        Ok(TxnOutput::None)
    }
}

/// An open cart tracked by the generator.
#[derive(Debug, Clone)]
struct CartState {
    id: Text,
    customer: Text,
    /// `(line_id, sku, quantity, unit_price)` currently in the cart.
    lines: Vec<(i64, Text, i64, f64)>,
    next_line: i64,
}

/// The synthetic workload generator.
pub struct WorkloadGenerator {
    cfg: WorkloadConfig,
    rng: StdRng,
    /// SKU names, precomputed once: `random_sku` on the per-transaction
    /// path copies a table entry instead of re-deriving the hash and
    /// formatting it every call.
    sku_names: Vec<Text>,
    clock: i64,
    next_cart: u64,
    next_checkout: u64,
    next_stock_txn: u64,
    open_carts: Vec<CartState>,
    /// Checkouts that completed and may still be browsed/cleaned up.
    live_checkouts: VecDeque<Text>,
    /// Finalised stock transactions awaiting archival to the warehouse.
    completed_stock_txns: VecDeque<Text>,
    /// Multi-transaction flows in progress, drained one txn per call.
    pending: VecDeque<B2wTxn>,
}

impl WorkloadGenerator {
    /// Creates a generator.
    pub fn new(cfg: WorkloadConfig) -> Self {
        assert!(cfg.num_skus > 0, "need at least one SKU");
        assert!(
            (0.0..=1.0).contains(&cfg.checkout_probability),
            "checkout probability must be a probability"
        );
        let rng = StdRng::seed_from_u64(cfg.seed);
        WorkloadGenerator {
            rng,
            sku_names: (0..cfg.num_skus).map(sku_name).collect(),
            cfg,
            clock: 0,
            next_cart: 0,
            next_checkout: 0,
            next_stock_txn: 0,
            open_carts: Vec::new(),
            live_checkouts: VecDeque::new(),
            completed_stock_txns: VecDeque::new(),
            pending: VecDeque::new(),
        }
    }

    /// Transactions that load the initial database: the SKU universe plus a
    /// population of open carts. Execute them before replaying load.
    pub fn initial_load(&mut self) -> Vec<B2wTxn> {
        let mut txns: Vec<B2wTxn> = Vec::new();
        // Carts (stock seeding is separate — see `seed_stock_procedures`).
        for _ in 0..self.cfg.initial_carts {
            let cart = self.new_cart();
            for _ in 0..self.cfg.lines_per_initial_cart {
                txns.push(self.add_line_txn_for_last_cart());
            }
            let _ = cart;
        }
        txns
    }

    /// Loader procedures seeding the stock table.
    pub fn seed_stock_procedures(&self) -> Vec<SeedStock> {
        self.sku_names
            .iter()
            .map(|sku| SeedStock {
                sku: sku.clone(),
                quantity: self.cfg.initial_stock,
            })
            .collect()
    }

    fn new_cart(&mut self) -> usize {
        // `{:012x}` is a minimum width: ids run to 21 bytes, still inline.
        let id = Text::format(format_args!(
            "cart-{:012x}",
            splitmix(self.cfg.seed, self.next_cart)
        ));
        let customer = Text::format(format_args!(
            "cust-{:08x}",
            self.rng.random_range(0..u32::MAX)
        ));
        self.next_cart += 1;
        self.open_carts.push(CartState {
            id,
            customer,
            lines: Vec::new(),
            next_line: 0,
        });
        self.open_carts.len() - 1
    }

    fn random_sku(&mut self) -> Text {
        self.sku_names[self.rng.random_range(0..self.sku_names.len())].clone()
    }

    /// Emits an AddLineToCart for the most recently created cart.
    fn add_line_txn_for_last_cart(&mut self) -> B2wTxn {
        let idx = self.open_carts.len() - 1;
        self.add_line_txn(idx)
    }

    fn add_line_txn(&mut self, idx: usize) -> B2wTxn {
        let sku = self.random_sku();
        let qty = self.rng.random_range(1..4);
        let price = self.rng.random_range(5.0..500.0f64);
        self.clock += 1;
        let cart = &mut self.open_carts[idx];
        let line_id = cart.next_line;
        cart.next_line += 1;
        cart.lines.push((line_id, sku.clone(), qty, price));
        B2wTxn::AddLineToCart(AddLineToCart {
            cart_id: cart.id.clone(),
            customer_id: cart.customer.clone(),
            line_id,
            sku,
            quantity: qty,
            unit_price: price,
            now: self.clock,
        })
    }

    /// Queues the full checkout flow for the cart at `idx` (removing it
    /// from the open set) and returns the first transaction.
    fn start_checkout(&mut self, idx: usize) -> B2wTxn {
        let cart = self.open_carts.swap_remove(idx);
        self.clock += 1;
        let checkout_id = Text::format(format_args!(
            "chk-{:012x}",
            splitmix(self.cfg.seed ^ 0xC0, self.next_checkout)
        ));
        self.next_checkout += 1;
        let amount: f64 = cart.lines.iter().map(|(_, _, q, p)| *q as f64 * p).sum();

        // The flow goes straight onto the queue; its first transaction is
        // taken back off at the end.
        let first = self.pending.len();
        let flow = &mut self.pending;
        flow.push_back(B2wTxn::ReserveCart(ReserveCart {
            cart_id: cart.id.clone(),
            now: self.clock,
        }));
        // Reserve stock per line; record a stock transaction for each.
        let mut stock_txns = Vec::with_capacity(cart.lines.len());
        for (_, sku, qty, _) in &cart.lines {
            let stx = Text::format(format_args!(
                "stx-{:012x}",
                splitmix(self.cfg.seed ^ 0x57, self.next_stock_txn)
            ));
            self.next_stock_txn += 1;
            flow.push_back(B2wTxn::ReserveStock(ReserveStock {
                sku: sku.clone(),
                quantity: *qty,
            }));
            flow.push_back(B2wTxn::CreateStockTransaction(CreateStockTransaction {
                stock_txn_id: stx.clone(),
                sku: sku.clone(),
                cart_id: cart.id.clone(),
                quantity: *qty,
            }));
            stock_txns.push(stx);
        }
        flow.push_back(B2wTxn::CreateCheckout(CreateCheckout {
            checkout_id: checkout_id.clone(),
            cart_id: cart.id.clone(),
            amount_due: amount,
            now: self.clock,
        }));
        for ((line_id, sku, qty, price), stx) in cart.lines.iter().zip(&stock_txns) {
            flow.push_back(B2wTxn::AddLineToCheckout(AddLineToCheckout {
                checkout_id: checkout_id.clone(),
                line_id: *line_id,
                sku: sku.clone(),
                quantity: *qty,
                price: *price,
                stock_txn_id: stx.clone(),
            }));
        }

        // Most checkouts pay and purchase; some cancel everything.
        let cancels = self.rng.random_range(0.0..1.0) < 0.1;
        if cancels {
            for ((line_id, sku, qty, _), stx) in cart.lines.iter().zip(&stock_txns) {
                flow.push_back(B2wTxn::CancelStockReservation(CancelStockReservation {
                    sku: sku.clone(),
                    quantity: *qty,
                }));
                flow.push_back(B2wTxn::UpdateStockTransaction(UpdateStockTransaction {
                    stock_txn_id: stx.clone(),
                    new_status: status::CANCELLED.into(),
                }));
                flow.push_back(B2wTxn::DeleteLineFromCheckout(DeleteLineFromCheckout {
                    checkout_id: checkout_id.clone(),
                    line_id: *line_id,
                }));
            }
            flow.push_back(B2wTxn::DeleteCheckout(DeleteCheckout { checkout_id }));
        } else {
            flow.push_back(B2wTxn::CreateCheckoutPayment(CreateCheckoutPayment {
                checkout_id: checkout_id.clone(),
                payment_id: 0,
                method: if self.rng.random_range(0.0..1.0) < 0.7 {
                    "CARD".into()
                } else {
                    "BOLETO".into()
                },
                amount,
            }));
            for ((_, sku, qty, _), stx) in cart.lines.iter().zip(&stock_txns) {
                flow.push_back(B2wTxn::PurchaseStock(PurchaseStock {
                    sku: sku.clone(),
                    quantity: *qty,
                }));
                flow.push_back(B2wTxn::UpdateStockTransaction(UpdateStockTransaction {
                    stock_txn_id: stx.clone(),
                    new_status: status::PURCHASED.into(),
                }));
            }
            flow.push_back(B2wTxn::GetCheckout(GetCheckout {
                checkout_id: checkout_id.clone(),
            }));
            self.live_checkouts.push_back(checkout_id);
        }
        flow.push_back(B2wTxn::DeleteCart(DeleteCart { cart_id: cart.id }));
        self.completed_stock_txns.extend(stock_txns);

        match self.pending.remove(first) {
            Some(txn) => txn,
            None => unreachable!("the flow starts with ReserveCart"),
        }
    }

    /// The next transaction of the workload stream.
    pub fn next_txn(&mut self) -> B2wTxn {
        if let Some(txn) = self.pending.pop_front() {
            return txn;
        }
        // Garbage-collect so the database holds only active data (§4.2):
        // old checkouts are deleted and finalised stock transactions are
        // archived to the (out-of-band) warehouse.
        if self.live_checkouts.len() > 400 {
            if let Some(id) = self.live_checkouts.pop_front() {
                return B2wTxn::DeleteCheckout(DeleteCheckout { checkout_id: id });
            }
        }
        if self.completed_stock_txns.len() > 400 {
            if let Some(id) = self.completed_stock_txns.pop_front() {
                return B2wTxn::ArchiveStockTransaction(ArchiveStockTransaction {
                    stock_txn_id: id,
                });
            }
        }

        let roll: f64 = self.rng.random_range(0.0..1.0);
        // Mix tuned towards the browse-heavy retail profile of §7.
        if roll < 0.28 {
            // Browse stock.
            let sku = self.random_sku();
            if self.rng.random_range(0.0..1.0) < 0.75 {
                B2wTxn::GetStockQuantity(GetStockQuantity { sku })
            } else {
                B2wTxn::GetStock(GetStock { sku })
            }
        } else if roll < 0.48 && !self.open_carts.is_empty() {
            // Re-read an open cart.
            let idx = self.rng.random_range(0..self.open_carts.len());
            B2wTxn::GetCart(GetCart {
                cart_id: self.open_carts[idx].id.clone(),
            })
        } else if roll < 0.60 {
            // Start a new cart — unless too many are already open, in
            // which case push an existing one towards checkout instead.
            if self.open_carts.len() > 4 * self.cfg.initial_carts.max(25) {
                let idx = self.rng.random_range(0..self.open_carts.len());
                if self.open_carts[idx].lines.is_empty() {
                    return self.add_line_txn(idx);
                }
                return self.start_checkout(idx);
            }
            let idx = self.new_cart();
            self.add_line_txn(idx)
        } else if roll < 0.80 && !self.open_carts.is_empty() {
            // Grow an existing cart, possibly triggering checkout.
            let idx = self.rng.random_range(0..self.open_carts.len());
            if self.open_carts[idx].lines.len() >= self.cfg.max_lines_per_cart {
                if self.rng.random_range(0.0..1.0) < self.cfg.checkout_probability {
                    return self.start_checkout(idx);
                }
                // Abandon: delete the cart.
                let cart = self.open_carts.swap_remove(idx);
                return B2wTxn::DeleteCart(DeleteCart { cart_id: cart.id });
            }
            self.add_line_txn(idx)
        } else if roll < 0.86 && !self.open_carts.is_empty() {
            // Remove a line (second thoughts).
            let idx = self.rng.random_range(0..self.open_carts.len());
            if self.open_carts[idx].lines.is_empty() {
                return self.add_line_txn(idx);
            }
            self.clock += 1;
            let cart = &mut self.open_carts[idx];
            let li = cart.lines.len() - 1;
            let (line_id, ..) = cart.lines.remove(li);
            B2wTxn::DeleteLineFromCart(DeleteLineFromCart {
                cart_id: cart.id.clone(),
                line_id,
                now: self.clock,
            })
        } else if roll < 0.93 && !self.open_carts.is_empty() {
            // Checkout an arbitrary cart with lines.
            let idx = self.rng.random_range(0..self.open_carts.len());
            if self.open_carts[idx].lines.is_empty() {
                return self.add_line_txn(idx);
            }
            self.start_checkout(idx)
        } else if roll < 0.96 && !self.completed_stock_txns.is_empty() {
            // Inspect a recent stock transaction.
            let idx = self.rng.random_range(0..self.completed_stock_txns.len());
            B2wTxn::GetStockTransaction(GetStockTransaction {
                stock_txn_id: self.completed_stock_txns[idx].clone(),
            })
        } else if !self.live_checkouts.is_empty() {
            // Browse a completed checkout.
            let idx = self.rng.random_range(0..self.live_checkouts.len());
            B2wTxn::GetCheckout(GetCheckout {
                checkout_id: self.live_checkouts[idx].clone(),
            })
        } else {
            let idx = self.new_cart();
            self.add_line_txn(idx)
        }
    }
}

/// Deterministic 64-bit mix (SplitMix64 finaliser) for id generation.
fn splitmix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sku_name(i: usize) -> Text {
    Text::format(format_args!("sku-{:08x}", splitmix(0x5C0C, i as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::b2w_catalog;
    use pstore_dbms::cluster::{Cluster, ClusterConfig};
    use std::collections::HashMap;

    fn small_cfg() -> WorkloadConfig {
        WorkloadConfig {
            seed: 7,
            num_skus: 200,
            initial_stock: 100_000,
            initial_carts: 30,
            lines_per_initial_cart: 2,
            max_lines_per_cart: 5,
            checkout_probability: 0.5,
        }
    }

    fn loaded_cluster(gen: &mut WorkloadGenerator) -> Cluster {
        let mut cluster = Cluster::new(
            b2w_catalog(),
            ClusterConfig {
                partitions_per_node: 2,
                num_slots: 64,
            },
            3,
        );
        for p in gen.seed_stock_procedures() {
            cluster.execute(&p).unwrap();
        }
        for t in gen.initial_load() {
            cluster.execute(&t).unwrap();
        }
        cluster
    }

    #[test]
    fn generated_stream_executes_without_unexpected_aborts() {
        let mut gen = WorkloadGenerator::new(small_cfg());
        let mut cluster = loaded_cluster(&mut gen);
        let mut business_aborts = 0u64;
        for i in 0..20_000 {
            let txn = gen.next_txn();
            match cluster.execute(&txn) {
                Ok(_) => {}
                Err(TxnError::Aborted(_)) => business_aborts += 1,
                Err(e) => panic!("unexpected abort at txn {i} ({}): {e}", txn.name()),
            }
        }
        // With deep stock, business aborts should be rare or absent.
        assert!(business_aborts < 20, "{business_aborts} business aborts");
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let mut a = WorkloadGenerator::new(small_cfg());
        let mut b = WorkloadGenerator::new(small_cfg());
        a.initial_load();
        b.initial_load();
        for _ in 0..500 {
            assert_eq!(a.next_txn(), b.next_txn());
        }
    }

    #[test]
    fn stream_covers_all_nineteen_procedures() {
        let mut gen = WorkloadGenerator::new(small_cfg());
        let mut cluster = loaded_cluster(&mut gen);
        let mut seen: HashMap<&'static str, u64> = HashMap::new();
        for _ in 0..60_000 {
            let txn = gen.next_txn();
            *seen.entry(txn.name()).or_default() += 1;
            let _ = cluster.execute(&txn);
        }
        let expected = [
            "AddLineToCart",
            "DeleteLineFromCart",
            "GetCart",
            "DeleteCart",
            "ReserveCart",
            "GetStock",
            "GetStockQuantity",
            "ReserveStock",
            "PurchaseStock",
            "CancelStockReservation",
            "CreateStockTransaction",
            "GetStockTransaction",
            "UpdateStockTransaction",
            "CreateCheckout",
            "CreateCheckoutPayment",
            "AddLineToCheckout",
            "DeleteLineFromCheckout",
            "GetCheckout",
            "DeleteCheckout",
        ];
        for name in expected {
            if name == "GetStockTransaction" {
                // Only generated via explicit browse; allow absence in the
                // stream but it must exist as a procedure (exercised in
                // procedures::tests).
                continue;
            }
            assert!(
                seen.get(name).copied().unwrap_or(0) > 0,
                "procedure {name} never generated; mix: {seen:?}"
            );
        }
    }

    #[test]
    fn database_size_stays_bounded() {
        let mut gen = WorkloadGenerator::new(small_cfg());
        let mut cluster = loaded_cluster(&mut gen);
        let mut sizes = Vec::new();
        for _ in 0..10 {
            for _ in 0..5_000 {
                let txn = gen.next_txn();
                let _ = cluster.execute(&txn);
            }
            sizes.push(cluster.total_bytes());
        }
        // The last snapshot should not be more than ~3x the first (active
        // data only; carts and checkouts are cleaned up).
        let first = sizes[0] as f64;
        let last = *sizes.last().unwrap() as f64;
        assert!(last < 3.0 * first, "database grows unbounded: {sizes:?}");
    }

    #[test]
    fn key_access_is_near_uniform_across_partitions() {
        // The §8.1 uniformity check, scaled down: run a chunk of workload
        // and verify partition access skew is low.
        let mut gen = WorkloadGenerator::new(WorkloadConfig {
            num_skus: 2_000,
            initial_carts: 200,
            ..small_cfg()
        });
        let mut cluster = Cluster::new(
            b2w_catalog(),
            ClusterConfig {
                partitions_per_node: 6,
                num_slots: 720,
            },
            5,
        );
        for p in gen.seed_stock_procedures() {
            cluster.execute(&p).unwrap();
        }
        for t in gen.initial_load() {
            cluster.execute(&t).unwrap();
        }
        for _ in 0..40_000 {
            let txn = gen.next_txn();
            let _ = cluster.execute(&txn);
        }
        let report = cluster.partition_report();
        let accesses: Vec<f64> = report.iter().map(|r| r.2 as f64).collect();
        let summary = pstore_dbms::stats::SkewSummary::from_values(&accesses).unwrap();
        assert!(
            summary.stddev_over_mean < 0.25,
            "access skew too high: {summary}"
        );
    }
}
