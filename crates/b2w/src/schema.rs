//! The B2W database schema (Fig 14 of the paper, simplified as published).
//!
//! Three logical databases — shopping cart, checkout, and stock — share one
//! catalog here; each table partitions on the first primary-key column
//! (cart id, checkout id, SKU, or stock-transaction id), so every Table 4
//! procedure is single-partition.

use pstore_dbms::catalog::{columns, Catalog, ColumnType, TableSchema};

/// Dense table ids, fixed by construction order in [`b2w_catalog`].
pub mod tables {
    use pstore_dbms::catalog::TableId;

    /// Shopping carts.
    pub const CART: TableId = 0;
    /// Lines (items) inside a cart; key `(cart_id, line_id)`.
    pub const CART_LINE: TableId = 1;
    /// Checkout objects.
    pub const CHECKOUT: TableId = 2;
    /// Lines inside a checkout; key `(checkout_id, line_id)`.
    pub const CHECKOUT_LINE: TableId = 3;
    /// Payments attached to a checkout; key `(checkout_id, payment_id)`.
    pub const CHECKOUT_PAYMENT: TableId = 4;
    /// Stock inventory per SKU.
    pub const STOCK: TableId = 5;
    /// Stock transactions (reservation records); key `stock_txn_id`.
    pub const STOCK_TXN: TableId = 6;
}

/// Builds the B2W catalog. Table ids match [`tables`].
pub fn b2w_catalog() -> Catalog {
    let mut cat = Catalog::new();

    let cart = cat.add_table(TableSchema::new(
        "CART",
        columns(&[
            ("cart_id", ColumnType::Str),
            ("customer_id", ColumnType::Str),
            ("status", ColumnType::Str), // OPEN | RESERVED | CHECKED_OUT
            ("total", ColumnType::Float),
            ("last_modified", ColumnType::Int),
        ]),
        1,
    ));
    debug_assert_eq!(cart, tables::CART);

    let cart_line = cat.add_table(TableSchema::new(
        "CART_LINE",
        columns(&[
            ("cart_id", ColumnType::Str),
            ("line_id", ColumnType::Int),
            ("sku", ColumnType::Str),
            ("quantity", ColumnType::Int),
            ("unit_price", ColumnType::Float),
            ("status", ColumnType::Str), // OPEN | RESERVED
        ]),
        2,
    ));
    debug_assert_eq!(cart_line, tables::CART_LINE);

    let checkout = cat.add_table(TableSchema::new(
        "CHECKOUT",
        columns(&[
            ("checkout_id", ColumnType::Str),
            ("cart_id", ColumnType::Str),
            ("status", ColumnType::Str), // OPEN | PAID | CANCELLED
            ("amount_due", ColumnType::Float),
            ("created_at", ColumnType::Int),
        ]),
        1,
    ));
    debug_assert_eq!(checkout, tables::CHECKOUT);

    let checkout_line = cat.add_table(TableSchema::new(
        "CHECKOUT_LINE",
        columns(&[
            ("checkout_id", ColumnType::Str),
            ("line_id", ColumnType::Int),
            ("sku", ColumnType::Str),
            ("quantity", ColumnType::Int),
            ("price", ColumnType::Float),
            ("stock_txn_id", ColumnType::Str),
        ]),
        2,
    ));
    debug_assert_eq!(checkout_line, tables::CHECKOUT_LINE);

    let checkout_payment = cat.add_table(TableSchema::new(
        "CHECKOUT_PAYMENT",
        columns(&[
            ("checkout_id", ColumnType::Str),
            ("payment_id", ColumnType::Int),
            ("method", ColumnType::Str),
            ("amount", ColumnType::Float),
            ("status", ColumnType::Str),
        ]),
        2,
    ));
    debug_assert_eq!(checkout_payment, tables::CHECKOUT_PAYMENT);

    let stock = cat.add_table(TableSchema::new(
        "STOCK",
        columns(&[
            ("sku", ColumnType::Str),
            ("available", ColumnType::Int),
            ("reserved", ColumnType::Int),
            ("purchased", ColumnType::Int),
            ("warehouse", ColumnType::Str),
        ]),
        1,
    ));
    debug_assert_eq!(stock, tables::STOCK);

    let stock_txn = cat.add_table(TableSchema::new(
        "STOCK_TXN",
        columns(&[
            ("stock_txn_id", ColumnType::Str),
            ("sku", ColumnType::Str),
            ("cart_id", ColumnType::Str),
            ("quantity", ColumnType::Int),
            ("status", ColumnType::Str), // RESERVED | PURCHASED | CANCELLED
        ]),
        1,
    ));
    debug_assert_eq!(stock_txn, tables::STOCK_TXN);

    cat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_all_seven_tables_in_order() {
        let cat = b2w_catalog();
        assert_eq!(cat.len(), 7);
        let names = [
            "CART",
            "CART_LINE",
            "CHECKOUT",
            "CHECKOUT_LINE",
            "CHECKOUT_PAYMENT",
            "STOCK",
            "STOCK_TXN",
        ];
        for (i, name) in names.iter().enumerate() {
            assert_eq!(cat.table(i).name, *name);
        }
    }

    #[test]
    fn composite_key_tables_have_two_key_columns() {
        let cat = b2w_catalog();
        assert_eq!(cat.table(tables::CART_LINE).key_columns, 2);
        assert_eq!(cat.table(tables::CHECKOUT_LINE).key_columns, 2);
        assert_eq!(cat.table(tables::CHECKOUT_PAYMENT).key_columns, 2);
        assert_eq!(cat.table(tables::CART).key_columns, 1);
        assert_eq!(cat.table(tables::STOCK).key_columns, 1);
    }

    #[test]
    fn partition_columns_are_entity_ids() {
        let cat = b2w_catalog();
        assert_eq!(cat.table(tables::CART).columns[0].name, "cart_id");
        assert_eq!(cat.table(tables::STOCK).columns[0].name, "sku");
        assert_eq!(cat.table(tables::STOCK_TXN).columns[0].name, "stock_txn_id");
    }
}
