#!/usr/bin/env python3
"""Render the catalog maps' disk images to SVG files.

Each picture shows concentric circle images (blue), radial ray images
(orange), and the near-boundary curve (dark). The square-image truncation
is the interesting one: the disk grid folds into an almost-square.
"""

import argparse
import os

from polyharm import catalog
from polyharm.render import render_svg

GALLERY = [
    ("identity", lambda: catalog.identity()),
    ("linear", lambda: catalog.linear(1.0, 1.0 / 3.0)),
    ("square", lambda: catalog.monomial(1, 2, 1.0)),
    ("f2", lambda: catalog.f2()),
    ("f0", lambda: catalog.f0()),
    ("f1", lambda: catalog.f1()),
    ("form37", lambda: catalog.builtin("form37",
                                       {"eta": 1.0, "zeta2": {"1": 1.0}})),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="rendered", help="output directory")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    for name, make in GALLERY:
        path = os.path.join(args.out_dir, name + ".svg")
        render_svg(make(), path)
        print("wrote %s" % path)


if __name__ == "__main__":
    main()
