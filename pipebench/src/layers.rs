//! The per-layer metrics of a traced run, named after the crates.
//!
//! Span-derived metrics come from each traced operation's self-time
//! [`Profile`]; counts come from the workloads' checks, from the engine's
//! `pufobs` instruments and from replays. A layer a workload bypasses
//! reports 0.

use crate::trace::Profile;
use crate::workloads::Counts;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const METRICS: &[(&str, &str)] = &[
    ("sramcell.power_up.calls", "count"),
    ("sramcell.power_up.busy_s", "s"),
    ("sramcell.power_up.share", "ratio"),
    ("sramaging.age.calls", "count"),
    ("sramaging.age.busy_s", "s"),
    ("sramaging.age.share", "ratio"),
    ("sramaging.analytic.busy_s", "s"),
    ("sramaging.analytic.share", "ratio"),
    ("puftestbed.i2c.transactions", "count"),
    ("puftestbed.i2c.bytes", "bytes"),
    ("puftestbed.i2c.busy_s", "s"),
    ("puftestbed.i2c.failures", "count"),
    ("puftestbed.campaign.shard_busy_s", "s"),
    ("puftestbed.campaign.parallel_efficiency", "ratio"),
    ("puftestbed.store.write.records", "count"),
    ("puftestbed.store.write.bytes", "bytes"),
    ("puftestbed.store.write.busy_s", "s"),
    ("puftestbed.store.persist_s", "s"),
    ("puftestbed.store.read.records", "count"),
    ("puftestbed.store.read.bytes", "bytes"),
    ("puftestbed.store.read.wait_s", "s"),
    ("puftestbed.store.read.failed", "count"),
    ("puftestbed.store.decode.us_per_record", "us"),
    ("pufassess.fold.records", "count"),
    ("pufassess.fold.skipped", "count"),
    ("pufassess.fold.busy_s", "s"),
    ("pufassess.fold.useful_ratio", "ratio"),
    ("pufassess.finish.busy_s", "s"),
    ("pufassess.render.busy_s", "s"),
    ("pufassess.fit.calls", "count"),
    ("pufassess.fit.busy_s", "s"),
    ("pufassess.keylife.busy_s", "s"),
    ("pufassess.keylife.wait_s", "s"),
    ("pufassess.keylife.reconstructions", "count"),
    ("pufassess.keylife.failures", "count"),
    ("pufassess.keylife.wrong_keys", "count"),
    ("pufassess.keylife.success_ratio", "ratio"),
    ("pufassess.keylife.merge_s", "s"),
    ("pufassess.keylife.finish_s", "s"),
    ("pufkeygen.reconstruct.golay-r5.us", "us"),
    ("pufkeygen.reconstruct.polar-512-128.us", "us"),
    ("pufkeygen.reconstruct.busy_s", "s"),
    ("pufkeygen.reconstruct.share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.replay_match", "ratio"),
];

/// The span-derived metrics of one traced operation.
pub fn from_profile(p: &Profile) -> Counts {
    let mut m = Counts::new();
    for (metric, span) in [
        ("sramcell.power_up.calls", "sramcell.power_up"),
        ("sramaging.age.calls", "sramaging.age"),
        ("pufassess.fit.calls", "pufassess.fit"),
    ] {
        m.insert(metric, p.layer(span).calls as f64);
    }
    for (metric, span) in [
        ("sramcell.power_up.busy_s", "sramcell.power_up"),
        ("sramaging.age.busy_s", "sramaging.age"),
        ("sramaging.analytic.busy_s", "sramaging.analytic"),
        ("puftestbed.i2c.busy_s", "puftestbed.i2c"),
        ("puftestbed.store.write.busy_s", "puftestbed.store.write"),
        ("puftestbed.store.persist_s", "puftestbed.store.persist"),
        ("puftestbed.store.read.wait_s", "puftestbed.store.read.wait"),
        ("pufassess.fold.busy_s", "pufassess.fold"),
        ("pufassess.finish.busy_s", "pufassess.finish"),
        ("pufassess.render.busy_s", "pufassess.render"),
        ("pufassess.fit.busy_s", "pufassess.fit"),
        ("pufassess.keylife.busy_s", "pufassess.keylife"),
        ("pufassess.keylife.wait_s", "pufassess.keylife.wait"),
        ("pufassess.keylife.merge_s", "pufassess.keylife.merge"),
        ("pufassess.keylife.finish_s", "pufassess.keylife.finish"),
    ] {
        m.insert(metric, p.layer(span).self_s);
    }
    for (metric, span) in [
        ("sramcell.power_up.share", "sramcell.power_up"),
        ("sramaging.age.share", "sramaging.age"),
        ("sramaging.analytic.share", "sramaging.analytic"),
    ] {
        m.insert(metric, p.share(span));
    }
    m.insert("trace.coverage", p.coverage);
    m
}
