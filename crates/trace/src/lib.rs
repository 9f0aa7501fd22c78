//! vcache-trace: zero-dependency structured tracing and metrics for the
//! simulator stack.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod event;
pub mod metrics;
pub mod shared;
pub mod sink;
pub mod span;

pub use event::{BankEventKind, MissClass, ParseError, PhaseKind, TraceEvent};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot, RollingWindow};
pub use shared::SharedMetrics;
pub use sink::{JsonlSink, MeteringSink, NullSink, RingSink, TraceSink};
pub use span::{SpanCollector, SpanContext, SpanCounts, SpanHandle, SpanRecord};
