#!/usr/bin/env bash
# tools/phases-selftest.sh
#
# Holds the phase map (tools/phases.txt, read through tools/phases.awk
# as tools/profile.sh reads it) to fixed answers: each sample below is
# a stack of frame names as `addr2line -C` prints them, innermost
# first, and the phase it must get. Inlined frames come as bare names
# with generic arguments, which must not be read as the items they
# name (the `step<.., ChordInlinks>` sample). A rule added, removed or reordered
# in phases.txt that moves one of them fails here by name; a new phase
# adds its sample here. Exit 0 only if every sample gets its phase.
# Nothing is built or written.
set -euo pipefail

root=$(git rev-parse --show-toplevel)

# <phase> | <innermost frame> | <its caller> | ...
samples=$(cat <<'EOF'
codec | ert_node::codec::encode_load_report | ert_node::node::answer_ask | <ert_node::cluster::Switch as ert_minidht::platform::Link>::ask
codec | decode_inline | read_answer | <ert_node::cluster::Switch as ert_minidht::platform::Link>::ask
codec | extend_from_slice<u8, alloc::alloc::Global> | put_frame | encode_adapt_indegree | encode_ask | <ert_node::cluster::Switch as ert_minidht::platform::Link>::ask
peer serve | serve | answer_ask | <ert_node::cluster::Switch as ert_minidht::platform::Link>::ask
table | push_outlink<u16, u64> | add_outlink | serve | answer_ask
link | <ert_node::cluster::Switch as ert_minidht::platform::Link>::ask | ert_minidht::platform::MiniDht<G,L>::run_schedule
table | push_mut<u64, alloc::alloc::Global> | ert_core::table::ElasticTable<S,Id>::push_outlink | ert_core::node::ErtNode::serve
table | ert_core::table::ElasticTable<S,Id>::outlinks | ert_network::topology::Topology::route_candidates
candidates: inlink | <ert_minidht::chord::ChordInlinks as core::iter::traits::iterator::Iterator>::next | <ert_core::node::Expand<G,I> as ert_core::node::Task>::step
candidates: inlink | <ert_overlay::cycloid::InlinkScan as core::iter::traits::iterator::Iterator>::next | ert_network::topology::Topology::grow_inlinks
candidates: hop | <ert_minidht::chord::ChordGeometry as ert_core::node::Geometry>::hop_candidates | ert_core::node::ErtNode::route
Algorithm 4 | ert_core::forward::Decision::poll | ert_core::node::ErtNode::route
adaptation: grow | <ert_core::node::Expand<G,I> as ert_core::node::Task>::step | ert_core::node::ErtNode::adapt
adaptation: grow | slice_contains | ert_network::topology::Topology::link_if_absent | ert_network::network::Network::adapt_tick
adaptation: other | ert_core::adapt::adapt_step | ert_network::network::Network::adapt_tick
adaptation: other | next | step<ert_minidht::chord::ChordGeometry, ert_minidht::chord::ChordInlinks> | run<ert_core::node::Adapt<ert_minidht::chord::ChordGeometry, ert_minidht::chord::ChordInlinks>, ert_node::cluster::Switch> | on_adapt<ert_minidht::chord::ChordGeometry, ert_node::cluster::Switch>
table build | <ert_core::node::Build<G,S,I> as ert_core::node::Task>::step | ert_minidht::platform::MiniDht<G,L>::new
queue | copy_nonoverlapping<ert_sim::event::Scheduled<ert_minidht::platform::Ev>> | ert_sim::event::EventQueue<E>::pop
queue | ert_sim::event::EventQueue<E>::schedule | ert_network::network::Network::run_with_faults
telemetry | ert_telemetry::Telemetry::emit | ert_network::network::Network::forward
sanitizer | ert_network::sanitize::Sanitizer::check_node | ert_network::network::Network::run_with_faults
service and hop | ert_network::network::Network::on_service_done | ert_network::network::Network::run_with_faults
driver | ert_minidht::platform::MiniDht<G,L>::run_schedule | ert_benchmark::harness::run_wire
benchmark harness | ert_benchmark::calibrate::Calibrator::around | main
unmapped | main | __libc_start_main
EOF
)

awk -F ' [|] ' -v rules="$root/tools/phases.txt" -f "$root/tools/phases.awk" -f <(
    cat <<'EOF'
BEGIN { read_phases(rules) }
{
    n = 0
    for (k = 2; k <= NF; k++) fns[++n] = $k
    got = phase_of(fns, n)
    if (got == $1) {
        printf "ok     %s: %s\n", $1, $2
    } else {
        printf "WRONG  %s: got %s, want %s\n", $2, got, $1
        wrong = 1
    }
}
END { exit wrong }
EOF
) <<<"$samples"
