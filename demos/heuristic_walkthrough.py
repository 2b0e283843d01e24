"""Place two slice requests step by step with the greedy heuristic.

Prints the advice, the per-step reward factors, and the residuals the
placement leaves behind, then pushes a request that cannot fit to show
the rollback.
"""

from slicesim import (PlacementEpisodeState, SliceRequest, apply_action,
                      build_reference_topology, episode_reward, fail_step,
                      heu_select)

net = build_reference_topology("tiny")
print(f"substrate: {len(net.servers)} servers, {len(net.nodes)} nodes")
for s in net.servers:
    node = net.nodes[s]
    print(f"  server {s}: cpu {node.cap_cpu}, ram {node.cap_ram}")


def place(request):
    state = PlacementEpisodeState(request)
    outcomes = []
    while not state.done:
        advice = heu_select(state, net)
        if not advice.exists:
            print("  no feasible server, rejecting and rolling back")
            outcomes.append(fail_step(state, net))
            break
        outcome = apply_action(state, net, advice.server, advice.paths)
        outcomes.append(outcome)
        print(f"  vnf {len(outcomes)} -> server {advice.server}: "
              f"placed={outcome.delta_a:+.0f} capacity={outcome.delta_b:.3f} "
              f"closeness={outcome.delta_c:.2f}")
        if not outcome.success:
            break
    rewards = episode_reward(outcomes, request.vnf_count)
    print(f"  accepted={outcomes[-1].success} rewards={rewards}")
    return state


def request(uid, n_vnfs, cpu, ram, bw):
    return SliceRequest(uid=uid, class_id=0, time=0.0, vnf_count=n_vnfs,
                        cpu=cpu, ram=ram, bw=bw)


print("\nfirst request: 3 VNFs of 10 cpu / 60 ram, 1 bw between them")
place(request(0, 3, 10.0, 60.0, 1.0))

print("\nsecond request: same shape, placed on the emptied-out substrate")
place(request(1, 3, 10.0, 60.0, 1.0))

print("\nresiduals after both placements:")
for s in net.servers:
    node = net.nodes[s]
    print(f"  server {s}: cpu {node.cap_cpu}, ram {node.cap_ram}")

print("\nthird request: 5 VNFs of 40 cpu each, too big for what is left")
before = net.residuals()
place(request(2, 5, 40.0, 240.0, 1.0))
print(f"rollback left residuals untouched: {net.residuals() == before}")
