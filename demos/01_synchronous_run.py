"""Synchronous run walkthrough.

Builds a random strongly connected digraph, gives every node an integer
mass/token pair, and runs the synchronous protocol until the nodes
certify agreement and stop on their own.  The agreed estimate always
lands on the floor or ceiling of the global quotient
(total mass / total tokens), and total mass never changes.
"""

from fractions import Fraction

from qcs import RunConfig, generate_random_digraph, normalized_error, run_sync, target_quotient

g = generate_random_digraph(n=20, edge_prob=0.5, seed=7)
print(f"network: {g.n} nodes, {g.edge_count} edges, diameter {g.diameter}")

y0 = [13, 8, 91, 40, 5, 77, 33, 62, 20, 54, 1, 88, 47, 16, 70, 29, 99, 35, 58, 23]
z0 = [2, 1, 4, 3, 1, 5, 2, 3, 1, 2, 1, 4, 2, 1, 3, 2, 5, 2, 3, 1]
quotient = target_quotient(y0, z0)
print(f"target quotient: {quotient} = {float(quotient):.4f}")

out = run_sync(RunConfig(graph=g, y0=y0, z0=z0, seed=1, record_trajectory=True, record_masses=True))

print(f"converged: {out.converged} at step {out.termination_step} "
      f"(vote windows of {g.diameter} steps)")
print(f"every node's estimate: {sorted(set(int(v) for v in out.final_estimate))}")
assert int(out.final_estimate[0]) in (quotient.__floor__(), -(-quotient).__floor__())

first, last = out.trajectory[0], out.trajectory[-1]
print(f"mass ledger: start {first.mass_totals()}, end {last.mass_totals()}")

series = normalized_error((out.mass_y, out.mass_z), float(1 / quotient), mode="reciprocal")
print("normalized error e[k]:",
      " ".join(f"{v:.3f}" for v in series.values[: out.termination_step + 1]))
