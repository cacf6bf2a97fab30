//! Regenerates "Table 13" (a replication addition over the paper):
//! steady-state standby lag under the concurrent serving workload, and
//! failover time to the first answered request — drain, promote the warm
//! standby in place, serve — against cold log-replay over the primary's
//! full history.
fn main() {
    let args = warp_bench::cli::args(
        "table13_replication",
        "Measures log-shipping replication: standby lag (in log records) \
         while client threads hammer the primary, and the time from the \
         primary's death to the first answered request on the warm standby \
         (drain the stream, promote in place, serve) versus cold-replaying \
         the primary's full log. The standby only applies the stretch it \
         was behind by, so failover should beat cold replay by a margin \
         that grows with the history.",
        Some(("ACTIONS", 400)),
        &["--json"],
    );
    let rows = warp_bench::table13_replication(args.scale);
    warp_bench::cli::write_report(args.json, &rows);
}
