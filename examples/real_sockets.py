#!/usr/bin/env python3
"""Run the paper's control loop on real sockets and real processes.

Everything else in this directory but ``process_kill_recovery.py`` runs
on the deterministic simulator; this example exercises the measurement of
Section 3 where the paper made it: every frame leaves the splitter with a
non-blocking send (``MSG_DONTWAIT``), the splitter elects to block in a
timed wait when the kernel will not take it — or when the worker's
retransmit window is full — and the blocked time accumulates in one
counter per connection.

Three worker OS processes serve a region over TCP; worker 2 is 10x
slower. Once per control interval the region hands the blocking counters
to the load balancer, which fits a blocking-rate function per connection
and re-solves the weights: the slow consumer shows up in the counters,
and nowhere else.

Run:  python examples/real_sockets.py
"""

from repro.core.balancer import LoadBalancer
from repro.proc.region import ProcessRegion

MULTIPLIERS = [1, 1, 10]  # worker 2 is 10x slower
TUPLE_COST_SECONDS = 0.0004
CONTROL_INTERVAL_SECONDS = 0.25
ROUNDS = 12


def main() -> None:
    balancer = LoadBalancer(len(MULTIPLIERS))
    region = ProcessRegion(
        len(MULTIPLIERS),
        multipliers=MULTIPLIERS,
        balancer=balancer,
        balancer_interval=CONTROL_INTERVAL_SECONDS,
        window=16,
        sink=lambda seq, body: None,
    )
    print("3 worker processes over TCP; worker 2 is 10x slower.")
    print(f"{'round':>6} {'weights':>22} {'blocking rates (s/s)':>30}")
    try:
        region.start().wait_ready(timeout=30.0)
        shown = balancer.rounds
        while balancer.rounds < ROUNDS:
            region.submit(TUPLE_COST_SECONDS)
            if balancer.rounds != shown:
                shown = balancer.rounds
                rates = ", ".join(f"{r:6.3f}" for r in balancer.last_rates)
                print(f"{shown:>6} {str(balancer.weights):>22} [{rates}]")
        region.drain(timeout=60.0)
        stats = region.stats()
    finally:
        region.close()

    final = balancer.weights
    blocked = ", ".join(f"{s:.2f}" for s in stats.blocked_seconds)
    print(f"\n{stats.results} tuples in {stats.wall_seconds:.1f} s; "
          f"seconds blocked per connection: [{blocked}]")
    print(f"final weights: {final}")
    if final[2] < min(final[0], final[1]):
        print("the balancer starved the slow worker using only "
              "kernel-level blocking measurements.")
    else:
        print("note: on a noisy machine the signal can need more rounds.")


if __name__ == "__main__":
    main()
