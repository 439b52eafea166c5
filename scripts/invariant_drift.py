#!/usr/bin/env python3
"""Step-size study of the conserved-quantity drift for the Ermakov model.

Integrates the default member of ``cli.MODELS`` (omega2 = 1 + 0.1 sin t,
c1 = c2 = 1) over [0, 5] at a ladder of step sizes and reports the relative
drift of the conserved quantity; the fourth-order signature of the
integrator shows up as a factor ~16 per halving.  Writes a plot-ready CSV.
"""
import argparse
from pathlib import Path

from folsys.cli import ScenarioConfig, build_bundle
from folsys.foliated import assemble, sup_drift
from folsys.integrate import integrate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/lewis_drift.csv")
    args = parser.parse_args()

    bundle = build_bundle(ScenarioConfig(model="ermakov"))
    lewis = bundle.observables["lewis"]
    F = assemble(bundle.system)
    ref = abs(lewis(bundle.default_state))

    rows = []
    for h in (0.04, 0.02, 0.01, 0.005, 0.0025):
        traj = integrate(F, bundle.default_state, 0.0, 5.0, h)
        drift = sup_drift(lewis, traj.states)
        rows.append((h, drift / ref))
        print(f"h = {h:<8g} relative drift = {drift / ref:.3e}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        fh.write("h,relative_drift\n")
        for h, d in rows:
            fh.write(f"{h:.17g},{d:.17g}\n")
    print(f"wrote {out}")

    ratios = [rows[i][1] / rows[i + 1][1] for i in range(len(rows) - 1)]
    print("halving ratios:", ", ".join(f"{r:.1f}" for r in ratios))


if __name__ == "__main__":
    main()
