//! The 19 stored procedures of the B2W benchmark (Table 4 of the paper).
//!
//! Each procedure routes on a single partitioning key (cart id, checkout
//! id, SKU, or stock-transaction id) and is therefore single-partition.
//! Cross-entity workflows — e.g. checking out a cart reserves each of its
//! SKUs — happen at the application layer (the workload generator), exactly
//! as in B2W's production deployment (§7).

use crate::schema::tables;
use pstore_dbms::txn::{Procedure, TxnCtx, TxnError, TxnOutput};
use pstore_dbms::value::{Key, KeyValue, Row, Text, Value};

/// Cart / line / checkout / stock-transaction status strings.
pub mod status {
    /// Entity is open for modification.
    pub const OPEN: &str = "OPEN";
    /// Cart or line reserved pending payment.
    pub const RESERVED: &str = "RESERVED";
    /// Stock transaction finalised as purchased.
    pub const PURCHASED: &str = "PURCHASED";
    /// Stock transaction or checkout cancelled.
    pub const CANCELLED: &str = "CANCELLED";
    /// Checkout fully paid.
    pub const PAID: &str = "PAID";
}

fn s(v: impl Into<Text>) -> Value {
    Value::Str(v.into())
}

// ---------------------------------------------------------------------
// Cart procedures
// ---------------------------------------------------------------------

/// `AddLineToCart`: add an item to a cart, creating the cart on first use.
#[derive(Debug, Clone, PartialEq)]
pub struct AddLineToCart {
    /// Cart id (partitioning key).
    pub cart_id: Text,
    /// Customer owning the cart.
    pub customer_id: Text,
    /// Line number within the cart.
    pub line_id: i64,
    /// Item SKU.
    pub sku: Text,
    /// Quantity added.
    pub quantity: i64,
    /// Unit price.
    pub unit_price: f64,
    /// Logical timestamp.
    pub now: i64,
}

impl Procedure for AddLineToCart {
    fn name(&self) -> &'static str {
        "AddLineToCart"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.cart_id.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let cart_key = Key::str(self.cart_id.clone());
        let line_total = self.quantity as f64 * self.unit_price;
        let known = ctx.update(tables::CART, "CART", &cart_key, |cart| {
            let total = match cart[3] {
                Value::Float(t) => t,
                _ => 0.0,
            };
            cart.set(3, Value::Float(total + line_total));
            cart.set(4, Value::Int(self.now));
            Ok(())
        });
        if known.is_err() {
            // The cart's first line creates it.
            ctx.put(
                tables::CART,
                cart_key,
                Row::new([
                    s(&self.cart_id),
                    s(&self.customer_id),
                    s(status::OPEN),
                    Value::Float(line_total),
                    Value::Int(self.now),
                ]),
            );
        }
        ctx.put(
            tables::CART_LINE,
            Key::str_int(self.cart_id.clone(), self.line_id),
            Row::new([
                s(&self.cart_id),
                Value::Int(self.line_id),
                s(&self.sku),
                Value::Int(self.quantity),
                Value::Float(self.unit_price),
                s(status::OPEN),
            ]),
        );
        Ok(TxnOutput::None)
    }
}

/// `DeleteLineFromCart`: remove an item from a cart.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteLineFromCart {
    /// Cart id (partitioning key).
    pub cart_id: Text,
    /// Line to remove.
    pub line_id: i64,
    /// Logical timestamp.
    pub now: i64,
}

impl Procedure for DeleteLineFromCart {
    fn name(&self) -> &'static str {
        "DeleteLineFromCart"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.cart_id.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let line_key = Key::str_int(self.cart_id.clone(), self.line_id);
        let line = ctx
            .delete(tables::CART_LINE, &line_key)
            .ok_or(TxnError::NotFound {
                table: "CART_LINE",
                key: line_key,
            })?;
        // Keep the cart total consistent, if there is a cart.
        let cart_key = Key::str(self.cart_id.clone());
        let _ = ctx.update(tables::CART, "CART", &cart_key, |cart| {
            let qty = line[3].as_int().unwrap_or(0) as f64;
            let price = match line[4] {
                Value::Float(p) => p,
                _ => 0.0,
            };
            if let Value::Float(t) = cart[3] {
                cart.set(3, Value::Float((t - qty * price).max(0.0)));
            }
            cart.set(4, Value::Int(self.now));
            Ok(())
        });
        Ok(TxnOutput::None)
    }
}

/// `GetCart`: retrieve a cart and its lines.
#[derive(Debug, Clone, PartialEq)]
pub struct GetCart {
    /// Cart id (partitioning key).
    pub cart_id: Text,
}

impl Procedure for GetCart {
    fn name(&self) -> &'static str {
        "GetCart"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.cart_id.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let cart_key = Key::str(self.cart_id.clone());
        let cart = ctx.get_required(tables::CART, "CART", &cart_key)?.clone();
        let mut rows = Vec::with_capacity(1 + ctx.prefix_len(tables::CART_LINE, &cart_key));
        rows.push((cart_key.clone(), cart));
        ctx.scan_prefix_with(tables::CART_LINE, &cart_key, |k, line| {
            rows.push((k.clone(), line.clone()));
        });
        Ok(TxnOutput::Rows(rows))
    }
}

/// `DeleteCart`: drop a cart and all its lines.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteCart {
    /// Cart id (partitioning key).
    pub cart_id: Text,
}

impl Procedure for DeleteCart {
    fn name(&self) -> &'static str {
        "DeleteCart"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.cart_id.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let cart_key = Key::str(self.cart_id.clone());
        let mut n = ctx.delete_prefix(tables::CART_LINE, &cart_key);
        if ctx.delete(tables::CART, &cart_key).is_some() {
            n += 1;
        }
        Ok(TxnOutput::Count(n))
    }
}

/// `ReserveCart`: mark a cart and its lines reserved for checkout.
#[derive(Debug, Clone, PartialEq)]
pub struct ReserveCart {
    /// Cart id (partitioning key).
    pub cart_id: Text,
    /// Logical timestamp.
    pub now: i64,
}

impl Procedure for ReserveCart {
    fn name(&self) -> &'static str {
        "ReserveCart"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.cart_id.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let cart_key = Key::str(self.cart_id.clone());
        ctx.update(tables::CART, "CART", &cart_key, |cart| {
            cart.set(2, s(status::RESERVED));
            cart.set(4, Value::Int(self.now));
            Ok(())
        })?;
        let n = ctx.update_prefix(tables::CART_LINE, &cart_key, |line| {
            line.set(5, s(status::RESERVED));
        });
        Ok(TxnOutput::Count(n))
    }
}

// ---------------------------------------------------------------------
// Stock procedures
// ---------------------------------------------------------------------

/// `GetStock`: full inventory record for a SKU.
#[derive(Debug, Clone, PartialEq)]
pub struct GetStock {
    /// SKU (partitioning key).
    pub sku: Text,
}

impl Procedure for GetStock {
    fn name(&self) -> &'static str {
        "GetStock"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.sku.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let row = ctx.get_required(tables::STOCK, "STOCK", &Key::str(self.sku.clone()))?;
        Ok(TxnOutput::Row(row.clone()))
    }
}

/// `GetStockQuantity`: available quantity of a SKU.
#[derive(Debug, Clone, PartialEq)]
pub struct GetStockQuantity {
    /// SKU (partitioning key).
    pub sku: Text,
}

impl Procedure for GetStockQuantity {
    fn name(&self) -> &'static str {
        "GetStockQuantity"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.sku.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let row = ctx.get_required(tables::STOCK, "STOCK", &Key::str(self.sku.clone()))?;
        Ok(TxnOutput::Value(row[1].clone()))
    }
}

/// `ReserveStock`: move quantity from available to reserved; aborts when
/// insufficient stock remains.
#[derive(Debug, Clone, PartialEq)]
pub struct ReserveStock {
    /// SKU (partitioning key).
    pub sku: Text,
    /// Quantity to reserve.
    pub quantity: i64,
}

impl Procedure for ReserveStock {
    fn name(&self) -> &'static str {
        "ReserveStock"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.sku.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let key = Key::str(self.sku.clone());
        ctx.update(tables::STOCK, "STOCK", &key, |row| {
            let available = row[1].as_int().unwrap_or(0);
            if available < self.quantity {
                return Err(TxnError::Aborted(format!(
                    "insufficient stock for {}: {} < {}",
                    self.sku, available, self.quantity
                )));
            }
            let reserved = row[2].as_int().unwrap_or(0);
            row.set(1, Value::Int(available - self.quantity));
            row.set(2, Value::Int(reserved + self.quantity));
            Ok(TxnOutput::None)
        })
    }
}

/// `PurchaseStock`: move quantity from reserved to purchased.
#[derive(Debug, Clone, PartialEq)]
pub struct PurchaseStock {
    /// SKU (partitioning key).
    pub sku: Text,
    /// Quantity purchased.
    pub quantity: i64,
}

impl Procedure for PurchaseStock {
    fn name(&self) -> &'static str {
        "PurchaseStock"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.sku.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let key = Key::str(self.sku.clone());
        ctx.update(tables::STOCK, "STOCK", &key, |row| {
            let reserved = row[2].as_int().unwrap_or(0);
            if reserved < self.quantity {
                return Err(TxnError::Aborted(format!(
                    "cannot purchase unreserved stock for {}",
                    self.sku
                )));
            }
            let purchased = row[3].as_int().unwrap_or(0);
            row.set(2, Value::Int(reserved - self.quantity));
            row.set(3, Value::Int(purchased + self.quantity));
            Ok(TxnOutput::None)
        })
    }
}

/// `CancelStockReservation`: return reserved quantity to available.
#[derive(Debug, Clone, PartialEq)]
pub struct CancelStockReservation {
    /// SKU (partitioning key).
    pub sku: Text,
    /// Quantity to release.
    pub quantity: i64,
}

impl Procedure for CancelStockReservation {
    fn name(&self) -> &'static str {
        "CancelStockReservation"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.sku.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let key = Key::str(self.sku.clone());
        ctx.update(tables::STOCK, "STOCK", &key, |row| {
            let reserved = row[2].as_int().unwrap_or(0);
            if reserved < self.quantity {
                return Err(TxnError::Aborted(format!(
                    "cannot release more than reserved for {}",
                    self.sku
                )));
            }
            let available = row[1].as_int().unwrap_or(0);
            row.set(1, Value::Int(available + self.quantity));
            row.set(2, Value::Int(reserved - self.quantity));
            Ok(TxnOutput::None)
        })
    }
}

// ---------------------------------------------------------------------
// Stock-transaction procedures
// ---------------------------------------------------------------------

/// `CreateStockTransaction`: record that an item in a cart was reserved.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateStockTransaction {
    /// Stock-transaction id (partitioning key).
    pub stock_txn_id: Text,
    /// SKU reserved.
    pub sku: Text,
    /// Cart that triggered the reservation.
    pub cart_id: Text,
    /// Quantity reserved.
    pub quantity: i64,
}

impl Procedure for CreateStockTransaction {
    fn name(&self) -> &'static str {
        "CreateStockTransaction"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.stock_txn_id.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        ctx.insert_new(
            tables::STOCK_TXN,
            "STOCK_TXN",
            Key::str(self.stock_txn_id.clone()),
            Row::new([
                s(&self.stock_txn_id),
                s(&self.sku),
                s(&self.cart_id),
                Value::Int(self.quantity),
                s(status::RESERVED),
            ]),
        )?;
        Ok(TxnOutput::None)
    }
}

/// `GetStockTransaction`: retrieve a stock transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct GetStockTransaction {
    /// Stock-transaction id (partitioning key).
    pub stock_txn_id: Text,
}

impl Procedure for GetStockTransaction {
    fn name(&self) -> &'static str {
        "GetStockTransaction"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.stock_txn_id.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let row = ctx.get_required(
            tables::STOCK_TXN,
            "STOCK_TXN",
            &Key::str(self.stock_txn_id.clone()),
        )?;
        Ok(TxnOutput::Row(row.clone()))
    }
}

/// `UpdateStockTransaction`: mark a stock transaction purchased/cancelled.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStockTransaction {
    /// Stock-transaction id (partitioning key).
    pub stock_txn_id: Text,
    /// New status (`PURCHASED` or `CANCELLED`).
    pub new_status: Text,
}

impl Procedure for UpdateStockTransaction {
    fn name(&self) -> &'static str {
        "UpdateStockTransaction"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.stock_txn_id.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let key = Key::str(self.stock_txn_id.clone());
        ctx.update(tables::STOCK_TXN, "STOCK_TXN", &key, |row| {
            row.set(4, s(&self.new_status));
            Ok(TxnOutput::None)
        })
    }
}

// ---------------------------------------------------------------------
// Checkout procedures
// ---------------------------------------------------------------------

/// `CreateCheckout`: start the checkout process for a cart.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateCheckout {
    /// Checkout id (partitioning key).
    pub checkout_id: Text,
    /// Cart being checked out.
    pub cart_id: Text,
    /// Amount due.
    pub amount_due: f64,
    /// Logical timestamp.
    pub now: i64,
}

impl Procedure for CreateCheckout {
    fn name(&self) -> &'static str {
        "CreateCheckout"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.checkout_id.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        ctx.insert_new(
            tables::CHECKOUT,
            "CHECKOUT",
            Key::str(self.checkout_id.clone()),
            Row::new([
                s(&self.checkout_id),
                s(&self.cart_id),
                s(status::OPEN),
                Value::Float(self.amount_due),
                Value::Int(self.now),
            ]),
        )?;
        Ok(TxnOutput::None)
    }
}

/// `CreateCheckoutPayment`: attach payment information to a checkout.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateCheckoutPayment {
    /// Checkout id (partitioning key).
    pub checkout_id: Text,
    /// Payment sequence number.
    pub payment_id: i64,
    /// Payment method (e.g. `CARD`, `BOLETO`).
    pub method: Text,
    /// Amount covered by this payment.
    pub amount: f64,
}

impl Procedure for CreateCheckoutPayment {
    fn name(&self) -> &'static str {
        "CreateCheckoutPayment"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.checkout_id.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let checkout_key = Key::str(self.checkout_id.clone());
        // Not an `update`: the checkout is read, the payment inserted, the
        // checkout written, in that order. Updating it first would mark a
        // checkout paid whose payment is then refused; updating it last
        // would read it a second time (one more read in the tally) or,
        // without the first read, report `AlreadyExists` where a missing
        // checkout reports `NotFound` today.
        let mut checkout = ctx
            .get_required(tables::CHECKOUT, "CHECKOUT", &checkout_key)?
            .clone();
        ctx.insert_new(
            tables::CHECKOUT_PAYMENT,
            "CHECKOUT_PAYMENT",
            Key::str_int(self.checkout_id.clone(), self.payment_id),
            Row::new([
                s(&self.checkout_id),
                Value::Int(self.payment_id),
                s(&self.method),
                Value::Float(self.amount),
                s(status::OPEN),
            ]),
        )?;
        checkout.set(2, s(status::PAID));
        ctx.put(tables::CHECKOUT, checkout_key, checkout);
        Ok(TxnOutput::None)
    }
}

/// `AddLineToCheckout`: copy a reserved cart line into a checkout.
#[derive(Debug, Clone, PartialEq)]
pub struct AddLineToCheckout {
    /// Checkout id (partitioning key).
    pub checkout_id: Text,
    /// Line number within the checkout.
    pub line_id: i64,
    /// Item SKU.
    pub sku: Text,
    /// Quantity.
    pub quantity: i64,
    /// Line price.
    pub price: f64,
    /// Stock transaction backing the reservation.
    pub stock_txn_id: Text,
}

impl Procedure for AddLineToCheckout {
    fn name(&self) -> &'static str {
        "AddLineToCheckout"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.checkout_id.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        // The checkout must exist.
        ctx.get_required(
            tables::CHECKOUT,
            "CHECKOUT",
            &Key::str(self.checkout_id.clone()),
        )?;
        ctx.put(
            tables::CHECKOUT_LINE,
            Key::str_int(self.checkout_id.clone(), self.line_id),
            Row::new([
                s(&self.checkout_id),
                Value::Int(self.line_id),
                s(&self.sku),
                Value::Int(self.quantity),
                Value::Float(self.price),
                s(&self.stock_txn_id),
            ]),
        );
        Ok(TxnOutput::None)
    }
}

/// `DeleteLineFromCheckout`: remove an item from a checkout (e.g. when its
/// reservation failed).
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteLineFromCheckout {
    /// Checkout id (partitioning key).
    pub checkout_id: Text,
    /// Line to remove.
    pub line_id: i64,
}

impl Procedure for DeleteLineFromCheckout {
    fn name(&self) -> &'static str {
        "DeleteLineFromCheckout"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.checkout_id.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let key = Key::str_int(self.checkout_id.clone(), self.line_id);
        ctx.delete(tables::CHECKOUT_LINE, &key)
            .ok_or(TxnError::NotFound {
                table: "CHECKOUT_LINE",
                key,
            })?;
        Ok(TxnOutput::None)
    }
}

/// `GetCheckout`: retrieve a checkout with its lines and payments.
#[derive(Debug, Clone, PartialEq)]
pub struct GetCheckout {
    /// Checkout id (partitioning key).
    pub checkout_id: Text,
}

impl Procedure for GetCheckout {
    fn name(&self) -> &'static str {
        "GetCheckout"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.checkout_id.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let key = Key::str(self.checkout_id.clone());
        let checkout = ctx
            .get_required(tables::CHECKOUT, "CHECKOUT", &key)?
            .clone();
        let parts = [tables::CHECKOUT_LINE, tables::CHECKOUT_PAYMENT];
        let len: usize = parts.iter().map(|&table| ctx.prefix_len(table, &key)).sum();
        let mut rows = Vec::with_capacity(1 + len);
        rows.push((key.clone(), checkout));
        for table in parts {
            ctx.scan_prefix_with(table, &key, |k, row| rows.push((k.clone(), row.clone())));
        }
        Ok(TxnOutput::Rows(rows))
    }
}

/// `DeleteCheckout`: drop a checkout with its lines and payments.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteCheckout {
    /// Checkout id (partitioning key).
    pub checkout_id: Text,
}

impl Procedure for DeleteCheckout {
    fn name(&self) -> &'static str {
        "DeleteCheckout"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.checkout_id.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let key = Key::str(self.checkout_id.clone());
        let mut n = ctx.delete_prefix(tables::CHECKOUT_LINE, &key);
        n += ctx.delete_prefix(tables::CHECKOUT_PAYMENT, &key);
        if ctx.delete(tables::CHECKOUT, &key).is_some() {
            n += 1;
        }
        Ok(TxnOutput::Count(n))
    }
}

/// `ArchiveStockTransaction`: drop a finalised stock transaction from the
/// active database.
///
/// Not part of Table 4 — it models the out-of-band archival the paper
/// describes in §4.2 ("historical data is moved to a separate data
/// warehouse"), which is what keeps the active database size stable.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveStockTransaction {
    /// Stock-transaction id (partitioning key).
    pub stock_txn_id: Text,
}

impl Procedure for ArchiveStockTransaction {
    fn name(&self) -> &'static str {
        "ArchiveStockTransaction"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.stock_txn_id.clone())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let key = Key::str(self.stock_txn_id.clone());
        let n = u64::from(ctx.delete(tables::STOCK_TXN, &key).is_some());
        Ok(TxnOutput::Count(n))
    }
}

// ---------------------------------------------------------------------
// The trace-able transaction enum
// ---------------------------------------------------------------------

/// Any B2W transaction — the unit of the benchmark's traces.
#[derive(Debug, Clone, PartialEq)]
#[allow(
    missing_docs,
    reason = "each variant is named after the procedure it wraps"
)]
pub enum B2wTxn {
    AddLineToCart(AddLineToCart),
    DeleteLineFromCart(DeleteLineFromCart),
    GetCart(GetCart),
    DeleteCart(DeleteCart),
    ReserveCart(ReserveCart),
    GetStock(GetStock),
    GetStockQuantity(GetStockQuantity),
    ReserveStock(ReserveStock),
    PurchaseStock(PurchaseStock),
    CancelStockReservation(CancelStockReservation),
    CreateStockTransaction(CreateStockTransaction),
    GetStockTransaction(GetStockTransaction),
    UpdateStockTransaction(UpdateStockTransaction),
    CreateCheckout(CreateCheckout),
    CreateCheckoutPayment(CreateCheckoutPayment),
    AddLineToCheckout(AddLineToCheckout),
    DeleteLineFromCheckout(DeleteLineFromCheckout),
    GetCheckout(GetCheckout),
    DeleteCheckout(DeleteCheckout),
    ArchiveStockTransaction(ArchiveStockTransaction),
}

macro_rules! dispatch {
    ($self:ident, $inner:ident => $e:expr) => {
        match $self {
            B2wTxn::AddLineToCart($inner) => $e,
            B2wTxn::DeleteLineFromCart($inner) => $e,
            B2wTxn::GetCart($inner) => $e,
            B2wTxn::DeleteCart($inner) => $e,
            B2wTxn::ReserveCart($inner) => $e,
            B2wTxn::GetStock($inner) => $e,
            B2wTxn::GetStockQuantity($inner) => $e,
            B2wTxn::ReserveStock($inner) => $e,
            B2wTxn::PurchaseStock($inner) => $e,
            B2wTxn::CancelStockReservation($inner) => $e,
            B2wTxn::CreateStockTransaction($inner) => $e,
            B2wTxn::GetStockTransaction($inner) => $e,
            B2wTxn::UpdateStockTransaction($inner) => $e,
            B2wTxn::CreateCheckout($inner) => $e,
            B2wTxn::CreateCheckoutPayment($inner) => $e,
            B2wTxn::AddLineToCheckout($inner) => $e,
            B2wTxn::DeleteLineFromCheckout($inner) => $e,
            B2wTxn::GetCheckout($inner) => $e,
            B2wTxn::DeleteCheckout($inner) => $e,
            B2wTxn::ArchiveStockTransaction($inner) => $e,
        }
    };
}

impl Procedure for B2wTxn {
    fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }
    fn routing_key(&self) -> KeyValue {
        dispatch!(self, p => p.routing_key())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        dispatch!(self, p => p.execute(ctx))
    }
}

impl B2wTxn {
    /// Whether this transaction only reads.
    pub fn is_read_only(&self) -> bool {
        matches!(
            self,
            B2wTxn::GetCart(_)
                | B2wTxn::GetStock(_)
                | B2wTxn::GetStockQuantity(_)
                | B2wTxn::GetStockTransaction(_)
                | B2wTxn::GetCheckout(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::b2w_catalog;
    use pstore_dbms::cluster::{Cluster, ClusterConfig};

    fn cluster() -> Cluster {
        Cluster::new(
            b2w_catalog(),
            ClusterConfig {
                partitions_per_node: 2,
                num_slots: 64,
            },
            2,
        )
    }

    fn seed_stock(c: &mut Cluster, sku: &str, qty: i64) {
        // Directly execute an insert via a tiny inline procedure.
        struct SeedStock(String, i64);
        impl Procedure for SeedStock {
            fn name(&self) -> &'static str {
                "SeedStock"
            }
            fn routing_key(&self) -> KeyValue {
                KeyValue::Str(self.0.as_str().into())
            }
            fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
                ctx.put(
                    tables::STOCK,
                    Key::str(self.0.clone()),
                    Row::new([
                        Value::Str(self.0.as_str().into()),
                        Value::Int(self.1),
                        Value::Int(0),
                        Value::Int(0),
                        Value::Str("W1".into()),
                    ]),
                );
                Ok(TxnOutput::None)
            }
        }
        c.execute(&SeedStock(sku.into(), qty)).unwrap();
    }

    #[test]
    fn cart_lifecycle() {
        let mut c = cluster();
        for line in 0..3 {
            c.execute(&AddLineToCart {
                cart_id: "cart-1".into(),
                customer_id: "cust-1".into(),
                line_id: line,
                sku: format!("sku-{line}").into(),
                quantity: 2,
                unit_price: 10.0,
                now: 100 + line,
            })
            .unwrap();
        }
        let TxnOutput::Rows(rows) = c
            .execute(&GetCart {
                cart_id: "cart-1".into(),
            })
            .unwrap()
        else {
            panic!("expected rows");
        };
        assert_eq!(rows.len(), 4); // cart + 3 lines
                                   // Total = 3 lines x 2 x 10.
        assert_eq!(rows[0].1[3], Value::Float(60.0));

        c.execute(&DeleteLineFromCart {
            cart_id: "cart-1".into(),
            line_id: 1,
            now: 200,
        })
        .unwrap();
        let TxnOutput::Rows(rows) = c
            .execute(&GetCart {
                cart_id: "cart-1".into(),
            })
            .unwrap()
        else {
            panic!("expected rows");
        };
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].1[3], Value::Float(40.0));

        let TxnOutput::Count(n) = c
            .execute(&DeleteCart {
                cart_id: "cart-1".into(),
            })
            .unwrap()
        else {
            panic!("expected count");
        };
        assert_eq!(n, 3); // cart + 2 remaining lines
        assert!(c
            .execute(&GetCart {
                cart_id: "cart-1".into()
            })
            .is_err());
    }

    #[test]
    fn stock_reserve_purchase_flow() {
        let mut c = cluster();
        seed_stock(&mut c, "sku-9", 10);
        c.execute(&ReserveStock {
            sku: "sku-9".into(),
            quantity: 4,
        })
        .unwrap();
        let TxnOutput::Value(v) = c
            .execute(&GetStockQuantity {
                sku: "sku-9".into(),
            })
            .unwrap()
        else {
            panic!("expected value");
        };
        assert_eq!(v, Value::Int(6));

        c.execute(&PurchaseStock {
            sku: "sku-9".into(),
            quantity: 3,
        })
        .unwrap();
        c.execute(&CancelStockReservation {
            sku: "sku-9".into(),
            quantity: 1,
        })
        .unwrap();
        let TxnOutput::Row(row) = c
            .execute(&GetStock {
                sku: "sku-9".into(),
            })
            .unwrap()
        else {
            panic!("expected row");
        };
        assert_eq!(row[1], Value::Int(7)); // available 6 + 1 released
        assert_eq!(row[2], Value::Int(0)); // reserved all consumed
        assert_eq!(row[3], Value::Int(3)); // purchased
    }

    /// A read hands out the stored row itself, shared: a later write to
    /// the stored row copies it first, and so does a write to the row
    /// handed out, so neither sees the other's.
    #[test]
    fn a_returned_row_and_the_stored_row_do_not_see_each_others_writes() {
        let mut c = cluster();
        seed_stock(&mut c, "sku-9", 10);
        let get_stock = |c: &mut Cluster| match c.execute(&GetStock {
            sku: "sku-9".into(),
        }) {
            Ok(TxnOutput::Row(row)) => row,
            other => panic!("expected a row, got {other:?}"),
        };
        let mut returned = get_stock(&mut c);
        c.execute(&ReserveStock {
            sku: "sku-9".into(),
            quantity: 4,
        })
        .unwrap();
        assert_eq!(&returned[1..3], &[Value::Int(10), Value::Int(0)]);
        returned.set(1, Value::Int(-1));
        assert_eq!(&get_stock(&mut c)[1..3], &[Value::Int(6), Value::Int(4)]);

        c.execute(&AddLineToCart {
            cart_id: "cart-1".into(),
            customer_id: "cust-1".into(),
            line_id: 0,
            sku: "sku-9".into(),
            quantity: 1,
            unit_price: 5.0,
            now: 1,
        })
        .unwrap();
        let get_cart = |c: &mut Cluster| match c.execute(&GetCart {
            cart_id: "cart-1".into(),
        }) {
            Ok(TxnOutput::Rows(rows)) => rows,
            other => panic!("expected rows, got {other:?}"),
        };
        let mut returned = get_cart(&mut c);
        c.execute(&ReserveCart {
            cart_id: "cart-1".into(),
            now: 2,
        })
        .unwrap();
        let open = Value::Str(status::OPEN.into());
        assert_eq!((&returned[0].1[2], &returned[1].1[5]), (&open, &open));
        returned[1].1.set(5, Value::Null);
        let stored = get_cart(&mut c);
        let reserved = Value::Str(status::RESERVED.into());
        assert_eq!((&stored[0].1[2], &stored[1].1[5]), (&reserved, &reserved));
    }

    #[test]
    fn reserve_aborts_when_out_of_stock() {
        let mut c = cluster();
        seed_stock(&mut c, "rare", 1);
        let err = c
            .execute(&ReserveStock {
                sku: "rare".into(),
                quantity: 5,
            })
            .unwrap_err();
        assert!(matches!(err, TxnError::Aborted(_)));
        // Nothing changed.
        let TxnOutput::Value(v) = c.execute(&GetStockQuantity { sku: "rare".into() }).unwrap()
        else {
            panic!("expected value");
        };
        assert_eq!(v, Value::Int(1));
    }

    #[test]
    fn checkout_lifecycle() {
        let mut c = cluster();
        c.execute(&CreateCheckout {
            checkout_id: "chk-1".into(),
            cart_id: "cart-1".into(),
            amount_due: 99.9,
            now: 1,
        })
        .unwrap();
        // Duplicate checkout rejected.
        assert!(c
            .execute(&CreateCheckout {
                checkout_id: "chk-1".into(),
                cart_id: "cart-2".into(),
                amount_due: 1.0,
                now: 2,
            })
            .is_err());

        c.execute(&AddLineToCheckout {
            checkout_id: "chk-1".into(),
            line_id: 0,
            sku: "sku-1".into(),
            quantity: 1,
            price: 99.9,
            stock_txn_id: "stx-1".into(),
        })
        .unwrap();
        c.execute(&CreateCheckoutPayment {
            checkout_id: "chk-1".into(),
            payment_id: 0,
            method: "CARD".into(),
            amount: 99.9,
        })
        .unwrap();

        let TxnOutput::Rows(rows) = c
            .execute(&GetCheckout {
                checkout_id: "chk-1".into(),
            })
            .unwrap()
        else {
            panic!("expected rows");
        };
        assert_eq!(rows.len(), 3); // checkout + line + payment
        assert_eq!(rows[0].1[2], Value::Str(status::PAID.into()));

        c.execute(&DeleteLineFromCheckout {
            checkout_id: "chk-1".into(),
            line_id: 0,
        })
        .unwrap();
        let TxnOutput::Count(n) = c
            .execute(&DeleteCheckout {
                checkout_id: "chk-1".into(),
            })
            .unwrap()
        else {
            panic!("expected count");
        };
        assert_eq!(n, 2); // checkout + payment (line already deleted)
    }

    #[test]
    fn stock_transaction_lifecycle() {
        let mut c = cluster();
        c.execute(&CreateStockTransaction {
            stock_txn_id: "stx-7".into(),
            sku: "sku-1".into(),
            cart_id: "cart-1".into(),
            quantity: 2,
        })
        .unwrap();
        c.execute(&UpdateStockTransaction {
            stock_txn_id: "stx-7".into(),
            new_status: status::PURCHASED.into(),
        })
        .unwrap();
        let TxnOutput::Row(row) = c
            .execute(&GetStockTransaction {
                stock_txn_id: "stx-7".into(),
            })
            .unwrap()
        else {
            panic!("expected row");
        };
        assert_eq!(row[4], Value::Str(status::PURCHASED.into()));
    }

    #[test]
    fn reserve_cart_marks_cart_and_lines() {
        let mut c = cluster();
        c.execute(&AddLineToCart {
            cart_id: "cart-5".into(),
            customer_id: "cust".into(),
            line_id: 0,
            sku: "sku-0".into(),
            quantity: 1,
            unit_price: 5.0,
            now: 1,
        })
        .unwrap();
        let TxnOutput::Count(n) = c
            .execute(&ReserveCart {
                cart_id: "cart-5".into(),
                now: 2,
            })
            .unwrap()
        else {
            panic!("expected count");
        };
        assert_eq!(n, 1);
        let TxnOutput::Rows(rows) = c
            .execute(&GetCart {
                cart_id: "cart-5".into(),
            })
            .unwrap()
        else {
            panic!("expected rows");
        };
        assert_eq!(rows[0].1[2], Value::Str(status::RESERVED.into()));
        assert_eq!(rows[1].1[5], Value::Str(status::RESERVED.into()));
    }

    #[test]
    fn enum_dispatch_matches_inner_procedures() {
        let txn = B2wTxn::GetCart(GetCart {
            cart_id: "c".into(),
        });
        assert_eq!(txn.name(), "GetCart");
        assert!(txn.is_read_only());
        assert_eq!(txn.routing_key(), KeyValue::Str("c".into()));
        let w = B2wTxn::ReserveStock(ReserveStock {
            sku: "s".into(),
            quantity: 1,
        });
        assert!(!w.is_read_only());
    }
}
