//! The switch surface as an outside caller sees it: the `TraceSpec`
//! travels with the sink, the gated predicates follow the sink, and the
//! span helpers are inert with nothing installed.

use pstore_telemetry::{
    begin_span, begin_span_with, enabled, install, install_with, prov_enabled, spec, MemorySink,
    SpanBegin, SpanGuard, SpanName, TraceSpec,
};
use std::rc::Rc;

#[test]
fn spans_without_a_sink_are_the_zero_sentinel() {
    assert!(!enabled());
    assert_eq!(begin_span(SpanName::Reconfig), 0);
    assert_eq!(begin_span_with(SpanBegin::reconfig(0, 2, 4)), 0);
    assert_eq!(SpanGuard::enter(SpanName::Tick).id(), 0);
}

#[test]
fn spec_is_installed_and_restored_with_the_sink() {
    let on = TraceSpec {
        prov: true,
        txn_sample_every: 7,
    };
    assert_eq!(spec(), TraceSpec::default());
    {
        let (outer, _) = MemorySink::new();
        let _outer = install_with(Rc::new(outer), on);
        assert_eq!(spec(), on);
        assert!(enabled() && prov_enabled());
        {
            let (inner, _) = MemorySink::new();
            let _inner = install(Rc::new(inner));
            assert_eq!(spec(), TraceSpec::default());
            assert!(!prov_enabled());
        }
        assert_eq!(spec(), on);
    }
    assert_eq!(spec(), TraceSpec::default());
    assert!(!enabled() && !prov_enabled());
}
