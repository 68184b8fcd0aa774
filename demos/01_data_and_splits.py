"""Loading rating logs and building leakage-free cold/warm splits.

Builds two tiny csv logs that share some users (but no items), loads them,
and walks through what the split guarantees: test users are sampled from the
overlap, their target ratings are halved by timestamp, and none of their
target ratings remain in the training pool.
"""

import tempfile
from pathlib import Path

from bridgerec import load_domain, make_split, overlap_users, verify_split

workdir = Path(tempfile.mkdtemp(prefix="bridgerec_demo_"))

src_csv = workdir / "movies.csv"
tgt_csv = workdir / "music.csv"
src_rows = ["user,item,rating,timestamp"]
tgt_rows = ["user,item,rating,timestamp"]
for i, user in enumerate(["ann", "bob", "cho", "dee", "eli", "fay"]):
    for j in range(4):
        src_rows.append(f"{user},movie{j},{3.0 + (i + j) % 3 * 0.5},{i * 100 + j}")
for i, user in enumerate(["ann", "bob", "cho", "dee", "gus"]):  # gus: target only
    for j in range(4):
        tgt_rows.append(f"{user},album{j},{2.5 + (i * j) % 4 * 0.5},{i * 100 + j}")
src_csv.write_text("\n".join(src_rows) + "\n", encoding="utf-8")
tgt_csv.write_text("\n".join(tgt_rows) + "\n", encoding="utf-8")

src = load_domain(src_csv)
tgt = load_domain(tgt_csv)
print(f"source: {src.n_users} users, {src.n_items} items, {src.n_ratings} ratings")
print(f"target: {tgt.n_users} users, {tgt.n_items} items, {tgt.n_ratings} ratings")
print("overlapping users:", sorted(overlap_users(src, tgt)))

plan = make_split(src, tgt, beta=0.5, seed=42)
print("\ncold-start test users:", plan.test_users)
print("bridge-training users: ", plan.train_overlap_users)

for user in plan.test_users:
    cold_ts = tgt.timestamp[plan.cold[user]].tolist()
    warm_ts = tgt.timestamp[plan.warm[user]].tolist()
    print(f"  {user}: cold timestamps {cold_ts}  warm timestamps {warm_ts}")

# every protocol invariant in one call: disjoint test/train users, timestamp
# ordering, 1:1 halving, and no held-out rating in the training pool
verify_split(plan, src, tgt)
print("\nleakage checks passed; split serializes deterministically:")
print(plan.to_json()[:120] + "...")
