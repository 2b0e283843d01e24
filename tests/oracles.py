"""Independent reference implementations the tests compare against.

Everything here is deliberately naive: exhaustive simple-path search
instead of a priority queue, full enumeration instead of greedy pruning,
central finite differences and a per-step autodiff tape instead of the
networks' batched closed-form gradients, one candidate at a time and a
keyed sort over event objects instead of the traffic generator's array
passes and the event stream's columns, a call per phase and class
instead of one pass that builds the phase table, a path tuple for every
swept node instead of a kept BFS tree. Slow is fine, shared
code with the package under test is not (the tape in slicesim.autodiff
is kept for these oracles only). The exceptions are `is_feasible`, which names the
package's own acceptance predicate so that tests can hold it against
`brute_feasible`, and `heu_select_scan`, the full scan that
`heu_select`'s kept-order walk replaced: it routes through the package,
so that only the selection rule differs.
"""

import json
import math

import numpy as np

from slicesim.autodiff import Tensor, concat, log_softmax
from slicesim.heuristic import HeuristicAdvice
from slicesim.networks import GCN_LAYERS
from slicesim.placement import _evaluate, route_all
from slicesim.substrate import NodeKind
from slicesim.traffic import (Departure, arrival_rate, class_rng,
                              request_from_class)

_EPS = 1e-9


def all_feasible_paths(net, src, dst, bw):
    """Every simple path src..dst whose links all hold at least bw."""
    if src == dst:
        return [()]
    found = []

    def walk(node, seen, acc):
        for nxt in net.link_index[node]:
            if nxt in seen:
                continue
            if net.bw[net.link_index[node][nxt]] + _EPS < bw:
                continue
            if nxt == dst:
                found.append(tuple(acc) + (nxt,))
                continue
            seen.add(nxt)
            acc.append(nxt)
            walk(nxt, seen, acc)
            acc.pop()
            seen.remove(nxt)

    walk(src, {src}, [src])
    return found


def data_centers(net):
    """{dc_id: (switch, servers)} grouped from the nodes' dc_id, in id
    order."""
    members = {}
    for node in net.nodes:
        members.setdefault(node.dc_id, []).append(node)
    return {dc: (next(n.id for n in nodes if n.kind is NodeKind.SWITCH),
                 [n.id for n in nodes if n.kind is NodeKind.SERVER])
            for dc, nodes in sorted(members.items())}


def outgoing_bw(net, n):
    """Residual bandwidth summed over node n's links in neighbour order."""
    return sum(net.bw[k] for k in net.link_index[n].values())


def is_feasible(state, net, target):
    """The acceptance predicate of `apply_action`, without side effects."""
    return _evaluate(state, net, target) is not None


def sweep_paths(net, src, bw):
    """The dict-building sweep `route_all` ran before it kept a BFS tree:
    breadth-first over the neighbours in ascending order and the links
    that hold bw, each newly reached node's path its discoverer's path
    plus itself; {node: path} in the order reached, src mapping to ()."""
    residual, link_index = net.bw, net.link_index
    paths = {src: (src,)}
    queue = [src]
    for node in queue:              # the loop also visits appended nodes
        head = paths[node]
        for nbr, link in link_index[node].items():
            if nbr not in paths and residual[link] + _EPS >= bw:
                paths[nbr] = head + (nbr,)
                queue.append(nbr)
    paths[src] = ()
    return paths


def sweep_closeness(net, paths):
    """delta_c onto each of net.servers over sweep_paths' paths: 1/hops,
    1.0 when co-located, None where unreachable."""
    closeness = []
    for path in map(paths.get, net.servers):
        hops = None if path is None else len(path) - 1
        closeness.append(None if hops is None
                         else 1.0 / hops if hops > 0 else 1.0)
    return closeness


def brute_route(net, src, dst, bw):
    """Min-hop path, ties to the smallest node sequence; None if cut off."""
    paths = all_feasible_paths(net, src, dst, bw)
    if not paths:
        return None
    return min(paths, key=lambda p: (len(p), p))


def brute_feasible(state, net, target):
    """Can the pending VNF go on this server right now?"""
    node = net.nodes[target]
    req = state.request
    if node.cap_cpu + _EPS < req.cpu or node.cap_ram + _EPS < req.ram:
        return False
    if state.next_vnf == 1:
        return True
    return brute_route(net, state.hosts[-1], target, req.bw) is not None


def brute_heu_choice(state, net):
    """Feasible server maximizing (residual-capacity score, closeness).

    Scores mirror the per-step reward factors: the capacity score is the
    target's cpu and ram residual fractions summed before any commit, the
    closeness score is 1/hops along a min-hop feasible path (1.0 for the
    first VNF or co-location). Ties go to the smallest server id; returns
    None when no server is feasible.
    """
    req = state.request
    best = None
    best_score = None
    for sid in net.servers:
        node = net.nodes[sid]
        if node.cap_cpu + _EPS < req.cpu or node.cap_ram + _EPS < req.ram:
            continue
        if state.next_vnf == 1:
            closeness = 1.0
        else:
            path = brute_route(net, state.hosts[-1], sid, req.bw)
            if path is None:
                continue
            hops = len(path) - 1
            closeness = 1.0 / hops if hops > 0 else 1.0
        capacity = node.cap_cpu / node.max_cpu + node.cap_ram / node.max_ram
        score = (capacity, closeness, -sid)
        if best_score is None or score > best_score:
            best, best_score = sid, score
    return best


def heu_select_scan(state, net):
    """`heu_select` as one pass over every server in id order, with no
    kept order: fits, scores (delta_b, delta_c) with step_scores' float
    expression, keeps the lexicographic best, the first on ties."""
    req = state.request
    if not state.hosts:
        paths = None
        closeness = [1.0] * len(net.servers)
    else:
        paths = route_all(net, state.hosts[-1], req.bw)
        closeness = paths.closeness
    best = None
    best_b = best_c = -math.inf
    for sid, delta_c in zip(net.servers, closeness):
        c, r = net.cpu[sid], net.ram[sid]
        if delta_c is None or not (c + _EPS >= req.cpu and r + _EPS >= req.ram):
            continue
        delta_b = c / net.max_cpu[sid] + r / net.max_ram[sid]
        if delta_b > best_b or (delta_b == best_b and delta_c > best_c):
            best, best_b, best_c = sid, delta_b, delta_c
    return HeuristicAdvice(best, paths)


def order_problems(net):
    """How the substrate's kept state differs from a fresh computation,
    as readable strings: its emptiest-first order against a sort of its
    servers by (-delta_b, id), and its bandwidth floor against the least
    residual of any link."""
    problems = []
    floor = min(net.bw, default=math.inf)
    if net.bw_floor != floor:
        problems.append(f"bw_floor: kept {net.bw_floor!r}, fresh {floor!r}")
    fresh = sorted((-(net.cpu[sid] / net.max_cpu[sid]
                      + net.ram[sid] / net.max_ram[sid]), sid, i)
                   for i, sid in enumerate(net.servers))
    if net.by_balance == fresh:
        return problems
    return problems + ([f"position {k}: kept {kept!r}, fresh {want!r}"
                        for k, (kept, want)
                        in enumerate(zip(net.by_balance, fresh))
                        if kept != want] or [
        f"kept {len(net.by_balance)} entries, fresh {len(fresh)}"])


def audit_ledger(sim, eps=1e-6):
    """Accounting problems of a simulation, as readable strings.

    Every residual must equal its maximum minus what the accepted-slice
    ledger holds on it, within eps, and none may be negative. The sums
    are taken here from the ledger's deltas, not by the package.
    """
    net = sim.net
    held = {}
    for delta in sim.ledger.values():
        for kind, part in (("cpu", delta.node_cpu), ("ram", delta.node_ram),
                           ("bw", delta.link_bw)):
            for where, amount in part.items():
                held[kind, where] = held.get((kind, where), 0.0) + amount
    checks = []
    for node in net.nodes:
        checks.append((f"node {node.id} cpu", node.cap_cpu,
                       node.max_cpu - held.get(("cpu", node.id), 0.0)))
        checks.append((f"node {node.id} ram", node.cap_ram,
                       node.max_ram - held.get(("ram", node.id), 0.0)))
    for key, link in net.links.items():
        checks.append((f"link {key} bw", link.cap_bw,
                       link.max_bw - held.get(("bw", key), 0.0)))
    problems = []
    for where, residual, want in checks:
        if residual < -eps:
            problems.append(f"{where}: residual {residual!r} < 0")
        if abs(residual - want) > eps:
            problems.append(f"{where}: residual {residual!r} != max - held "
                            f"{want!r}")
    return problems


def sample_arrivals_scalar(rate_fn, rate_bound, horizon, rng):
    """Thinning one candidate at a time: rate_fn gets each scalar time."""
    if rate_bound <= 0:
        return []
    times = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate_bound)
        if t >= horizon:
            break
        if rng.random() * rate_bound <= rate_fn(t):
            times.append(t)
    return times


def event_sort_key(ev):
    # departures before arrivals at equal times, freeing capacity first
    kind = 0 if isinstance(ev, Departure) else 1
    return (ev.time, kind, ev.class_id, ev.uid)


def load_events_list(path, classes):
    """A valid exported event file as a list of event objects: each
    arrival in file order followed by its departure, if the file has one,
    then one keyed sort, which is stable. Reads valid files only: it
    checks nothing."""
    by_id = {c.id: c for c in classes}
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    departures = {r["uid"]: r["time"] for r in records
                  if r["kind"] == "departure"}
    events = []
    for r in records:
        if r["kind"] != "arrival":
            continue
        cls = by_id[r["class"]]
        events.append(request_from_class(cls, r["uid"], r["time"]))
        if r["uid"] in departures:
            events.append(Departure(departures[r["uid"]], r["uid"], cls.id))
    events.sort(key=event_sort_key)
    return events


def generate_events_scalar(classes, horizon, seed):
    """The event stream built one request at a time and ordered by a
    keyed sort: uids by (time, class id), events by event_sort_key."""
    per_class = []
    for cls in classes:
        rng = class_rng(seed, cls.id)
        times = sample_arrivals_scalar(lambda t: arrival_rate(cls, t),
                                       cls.rate_bound(), horizon, rng)
        lifetimes = rng.exponential(cls.mean_lifetime, size=len(times))
        per_class.extend((cls, t, lt) for t, lt in zip(times, lifetimes))
    per_class.sort(key=lambda item: (item[1], item[0].id))
    events = []
    for uid, (cls, t, lifetime) in enumerate(per_class):
        events.append(request_from_class(cls, uid, t))
        events.append(Departure(t + float(lifetime), uid, cls.id))
    events.sort(key=event_sort_key)
    return events


def tar(records, phase, phase_size):
    """Acceptance within one phase; None while the phase is partial."""
    start, end = phase * phase_size, (phase + 1) * phase_size
    if len(records) < end:
        return None
    return sum(r.accepted for r in records[start:end]) / phase_size


def per_class_tar(records, class_id, phase, phase_size):
    """One class's acceptance within one phase; None for a partial phase
    and for a class with no arrival in the phase."""
    if len(records) < (phase + 1) * phase_size:
        return None
    window = records[phase * phase_size:(phase + 1) * phase_size]
    mine = [r for r in window if r.class_id == class_id]
    if not mine:
        return None
    return sum(r.accepted for r in mine) / len(mine)


def finite_diff_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at flat parameter vector x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = h
        g[i] = (f(x + bump) - f(x - bump)) / (2.0 * h)
    return g


def gcn_forward(net, node_features):
    """A SliceNet's K propagation layers over one (|N|, 4) observation;
    (|N|, width) output."""
    return net._gcn(np.asarray(node_features, dtype=np.float64)[None])[0]


def tape_forward(net, params, psn, nspr, load=None):
    """A SliceNet's forward pass built on the autodiff tape.

    params maps parameter names to Tensors that require gradients.
    """
    act = (lambda t: t.tanh()) if net.activation == "tanh" else \
        (lambda t: t.relu())
    x = Tensor(psn)
    for layer in range(GCN_LAYERS):
        x = act(Tensor(net.propagation) @ x @ params[f"gcn.{layer}.w"]
                + params[f"gcn.{layer}.b"])
    parts = [x.reshape(-1), act(Tensor(nspr) @ params["nspr.w"]
                                + params["nspr.b"])]
    if net.use_load:
        parts.append(act(Tensor(load) @ params["load.w"] + params["load.b"]))
    z = concat(parts) @ params["out.w"] + params["out.b"]
    return z.relu() if net.activation == "relu" else z


def tape_update(agent, steps):
    """The A2C update step by step on the autodiff tape: one SGD step on
    the critic, then one on the actor, applied to the agent's arrays.

    Returns the actor and critic losses.
    """
    cfg = agent.config
    returns = np.zeros(len(steps))
    acc = 0.0
    for i in range(len(steps) - 1, -1, -1):
        acc = steps[i].reward + cfg.gamma * acc
        returns[i] = acc

    def tensors(net):
        return {k: Tensor(v.copy(), requires_grad=True)
                for k, v in net.params.arrays().items()}

    def descend(net, params, lr):
        for k, t in params.items():
            if t.grad is not None:
                net.params[k][...] -= lr * t.grad

    critic = tensors(agent.critic)
    critic_loss = None
    advantages = np.zeros(len(steps))
    for i, step in enumerate(steps):
        v = tape_forward(agent.critic, critic, step.psn, step.nspr,
                         step.load)[0]
        advantages[i] = returns[i] - float(v.data)
        term = (Tensor(returns[i]) - v).square()
        critic_loss = term if critic_loss is None else critic_loss + term
    critic_loss.backward()
    descend(agent.critic, critic, cfg.critic_lr)

    actor = tensors(agent.actor)
    actor_loss = None
    for i, step in enumerate(steps):
        z = tape_forward(agent.actor, actor, step.psn, step.nspr, step.load)
        if step.shaping is not None:
            z = z + Tensor(step.shaping)
        term = log_softmax(z)[step.action] * float(-advantages[i])
        actor_loss = term if actor_loss is None else actor_loss + term
    actor_loss.backward()
    descend(agent.actor, actor, cfg.actor_lr)
    return actor_loss.item(), critic_loss.item()
