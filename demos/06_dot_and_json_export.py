"""Exporting AR quivers as Graphviz DOT and catalogs as exact-rational JSON."""

import json
from pathlib import Path

from dupcat import knit_ind_dup
from dupcat.catalog_io import catalog_from_dict, dup_catalog_to_dict, dumps
from dupcat.dot import ar_quiver_dot
from dupcat.fixtures import d4_subspace
from dupcat.tilting import enumerate_L_tilting

out_dir = Path(__file__).resolve().parent / "out"
out_dir.mkdir(exist_ok=True)

q = d4_subspace()
cat = knit_ind_dup(q)
free = enumerate_L_tilting(q)[0]

dot = ar_quiver_dot(cat, free)
(out_dir / "d4_ar_quiver.dot").write_text(dot)
print(f"wrote {out_dir / 'd4_ar_quiver.dot'}")
print(f"  {len(cat.entries)} nodes, {sum(cat.proj_injective)} circles "
      f"(projective-injectives), {len(free)} diamonds (chosen tilting)")

payload = dup_catalog_to_dict(cat)
(out_dir / "d4_ind_dup.json").write_text(dumps(payload))
print(f"wrote {out_dir / 'd4_ind_dup.json'}")

back = catalog_from_dict(json.loads(dumps(payload)))
print("round trip entries:", len(back.entries), "flags preserved:",
      back.in_L == cat.in_L and back.proj_injective == cat.proj_injective)
