"""Reference CSV writers: one f-string per row, the formats field by field.

These are the simulate command's row formats written out directly, kept as
the oracle for the column-wise writers in ``sdconsensus.cli``: floats by
``repr`` (shortest round trip), integers by ``str``, and the terminal row of
each run with empty ``h`` and ``topology`` fields.
"""

import numpy as np


def write_trajectories_csv(path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("run,k,t,h,topology,delta,nu\n")
        for rec in records:
            run = rec.run_id
            t, h, topo, delta, nu = (
                a.tolist() for a in (rec.t, rec.h, rec.topology, rec.delta, rec.nu)
            )
            f.writelines(
                f"{run},{k},{tk!r},{hk!r},{g},{d!r},{v!r}\n"
                for k, tk, hk, g, d, v in zip(range(len(h)), t, h, topo, delta, nu)
            )
            f.write(f"{run},{len(h)},{t[-1]!r},,,{delta[-1]!r},{nu[-1]!r}\n")


def write_aggregate_csv(path, aggregate) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("k,delta_max\n")
        values = np.asarray(aggregate, dtype=float).tolist()
        f.writelines(f"{k},{v!r}\n" for k, v in enumerate(values))


def write_states_csv(path, records) -> None:
    n_states = records[0].states.shape[2]
    cols = ",".join(f"x{c}" for c in range(n_states))
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"run,k,agent,{cols}\n")
        for rec in records:
            for k, frame in enumerate(rec.states.tolist()):
                f.writelines(
                    f"{rec.run_id},{k},{agent},{','.join(map(repr, row))}\n"
                    for agent, row in enumerate(frame)
                )
