"""Reference answers the benchmark checks every operation against.

The counts are typed by hand from the theory, not computed by ``dupcat``:
|ind A| is the number of positive roots, the cluster-tilting count is the
degree product prod (h + e_i + 1) / (e_i + 1), and the left part has
|ind A| + n non-projective-injective members.  The SHA-256 digests are of
the bytes ``dupcat export --out`` and ``dupcat emit-dot --out`` wrote at the
commit that added this benchmark; a change to the program must keep them
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import re

POSITIVE_ROOTS = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15, "D4": 12, "D5": 20}
CLUSTER_TILTING = {"A1": 2, "A2": 5, "A3": 14, "A4": 42, "A5": 132, "D4": 50, "D5": 182}
RANK = {"A1": 1, "A2": 2, "A3": 3, "A4": 4, "A5": 5, "D4": 4, "D5": 5}

VERIFY_CHECKS = [
    "embedding-fidelity",
    "projective-dimension-criterion",
    "sink-reachability",
    "sectional-paths",
    "ext-injectives-characterization",
    "left-part-two-route-equality",
    "cosyzygy-translate-identity",
    "socle-quotient-sequences",
    "fundamental-domain-count",
    "extension-symmetry-and-cross-model",
    "tilting-bijection",
    "canonical-tilting",
]

# (command, input) -> SHA-256 of the output file.  Inputs are fixture names,
# or "A5:" + the orientation as written by ``inputs.orientation_key``.
DIGESTS = {
    ("export", "a1"): "364ddddbd40d474cc2211bb805978ccab30a11153ae0c17099497a89c0e885d4",
    ("emit-dot", "a1"): "c5c4c72109c0db8b27e4c31ec2aa10887723955398ea05af6e681d7a7818befc",
    ("export", "a2"): "305e28b32fca5cc16c29ec1502ffb069ef93f03c2ead5dfb83b3b298c055ca2d",
    ("emit-dot", "a2"): "83756a38bd7f8f281f7a4f53ed2f0197c6566b60563fa4702089a91c11393560",
    ("export", "a3_linear"): "4e9bebaf97ca2aa695456e8ebd556388cc37f584981f45275754b1fa56bc9dcc",
    ("emit-dot", "a3_linear"): "5be0ce92824468993d8f487bc910cc677f1463410cc5d6a48d6214483d2145e5",
    ("export", "a3_zigzag"): "f497d9d80b703a9c9a71b795898aa00a1116166cb50cd50f1506119a0a5bfc3a",
    ("emit-dot", "a3_zigzag"): "3b8fbbaac4fe4892104c9e6f7e8d63c50a1d3a63d907903c3e81f2533f9c5f1e",
    ("export", "a4"): "0cebeba698a273a6ed29a8383ca017358679f2f496da339338d39f5202f3b79f",
    ("emit-dot", "a4"): "f82e5bb50257be964d5368c894f6cd1fafd6a1a287ce0b9f4173043121cc39ea",
    ("export", "d4"): "aa366a305432c71aad33249c6806d6b2ba2eb97ae9d384f7062bba196c4aaa02",
    ("emit-dot", "d4"): "81bc6cf186277f47e09e004c140dd2755ed02f76d643db0395fc0bf28f6dc7c8",
    ("export", "A5:1>2,2>3,3>4,4>5"): "7e8d40778c8dd21b30384cfc8bb362106869db0eab837b76819aca05f7a3749e",
    ("emit-dot", "A5:1>2,2>3,3>4,4>5"): "4f3187ae5de6d0720f08c9e488c8d32446c91aa8cd4e37f494b0c01aa893b468",
    ("export", "A5:1>2,2>3,3>4,5>4"): "079d2ca7baa1ab324e2efb0afc4f836d6db4d16e42b1982a7115c06c51dc0194",
    ("emit-dot", "A5:1>2,2>3,3>4,5>4"): "0463bf3119749861ed93e7cdbd8f6b163202d7197a81e85a6e8953c3232c388c",
    ("export", "A5:1>2,2>3,4>3,4>5"): "b46df6b9111a67f1297cd71c7898563160a67bd8de2e420b95dbb0f3364282f1",
    ("emit-dot", "A5:1>2,2>3,4>3,4>5"): "10f71b0bb1e4dfd630067d2851598c4d2293a466f836ae73b203da2278e45636",
    ("export", "A5:1>2,2>3,4>3,5>4"): "14cd6202be51aa10290df2b8bf58443dd079e248fc33a0696c32d18985d5b734",
    ("emit-dot", "A5:1>2,2>3,4>3,5>4"): "abc0049f928dc2320b5c8050d477344c7f4ad5b87ceadb385155e18d0f32ac5b",
    ("export", "A5:1>2,3>2,3>4,4>5"): "9c88f014e6e880b9ff0fa74c3bee7de054b264a71e4520e2c04ea4dde0853a03",
    ("emit-dot", "A5:1>2,3>2,3>4,4>5"): "f4960f5dcbb087f91332a2739041a69064e2a2996e9d0e4b45473ba9d0c730bd",
    ("export", "A5:1>2,3>2,3>4,5>4"): "39abd2e277d00d909d5450bf556bccc30786e4a9e798f13d13927bea1f7528fa",
    ("emit-dot", "A5:1>2,3>2,3>4,5>4"): "a246c418d3f690279467d0c49239cf96b4169927577a250c9fe4ea6810d76c81",
    ("export", "A5:1>2,3>2,4>3,4>5"): "a79fb514b5337f1b8f2708ec514174871f796325ae344056894c939848581359",
    ("emit-dot", "A5:1>2,3>2,4>3,4>5"): "a130372e368f453d4024318fc1f9437d1d56e4c1daec630ed00f3177b62bbacd",
    ("export", "A5:1>2,3>2,4>3,5>4"): "69ae486ef0c93db39548efd87928382f2fb8c8eee6dbc09f9c1858a6b483120e",
    ("emit-dot", "A5:1>2,3>2,4>3,5>4"): "2aa7a6294e5b5aa50192b4f41925e06ac8518d22b036b1f89794fbb98dd82c62",
    ("export", "A5:2>1,2>3,3>4,4>5"): "919cd0a1c2aca76552a568e2c981f9cb2f6fbe1ba47c9d25942a2e0f5b420c2c",
    ("emit-dot", "A5:2>1,2>3,3>4,4>5"): "993e68003072c2231029fedbcb7f442faeb0d788f0b482e3b875326ae3b19cf4",
    ("export", "A5:2>1,2>3,3>4,5>4"): "75f63a3641874198e34b480a6bf8a1857b6ca2845004ca4f72e4bde91ce26358",
    ("emit-dot", "A5:2>1,2>3,3>4,5>4"): "2ad8346cd58ffdb89a59c8ab3033821e3fee14a4123f615b1127206e207dba00",
    ("export", "A5:2>1,2>3,4>3,4>5"): "5b7f201abb4e30321a14e5849b90e8eca2c19a971bbb1ed537deee5eafaf28b8",
    ("emit-dot", "A5:2>1,2>3,4>3,4>5"): "d1e162797c744f30c00e9ad4505649a70730f924597ee5a033efd0169f7cd955",
    ("export", "A5:2>1,2>3,4>3,5>4"): "fe8f148a4a8db28e7c2bfb8fd0d25b2c2ad95edfec276ee4fa10d54573df7632",
    ("emit-dot", "A5:2>1,2>3,4>3,5>4"): "2d4b4acb886a0bbfa7061c51650fe64b578a5b03faeca7b7d5848aaebae68204",
    ("export", "A5:2>1,3>2,3>4,4>5"): "4e1e6b3fcab72162203b89fd6de7ebc9471afcd6d9ef6b6ae4c8a09882b5ee59",
    ("emit-dot", "A5:2>1,3>2,3>4,4>5"): "99c09ee27b86bd53e27e7f4f2ab799b0a35f22d38640c180718c371f1fa86db3",
    ("export", "A5:2>1,3>2,3>4,5>4"): "50c35482795d4dd90a292c5dc6d398bf36dfafe3851f07a7967290508f4edea6",
    ("emit-dot", "A5:2>1,3>2,3>4,5>4"): "d9ec4f0ea29148041bc6d84a2355918a6c4178f70a89880a21501a7748ab1e04",
    ("export", "A5:2>1,3>2,4>3,4>5"): "e70ff1f444b2b7ce4354911aed7548d8e233b2cc58e5f828959f697a42c3409a",
    ("emit-dot", "A5:2>1,3>2,4>3,4>5"): "de110264c76932580a6c906fee7205ceae298b6935b44aacc1229d49b7d482f0",
    ("export", "A5:2>1,3>2,4>3,5>4"): "aca7159c6801357d9e2f77fea77a43cfc7234a2982f7b95034b2a4bf534e55d5",
    ("emit-dot", "A5:2>1,3>2,4>3,5>4"): "cdea360cc8970b91cb8ed22e7fdeea627328015cbdb28aa63b48f5afa085826d",
}


def _expect_line(stdout: str, line: str, problems: list):
    if line not in stdout.splitlines():
        problems.append(f"missing line {line!r}")


def check_analyze(stdout: str, dynkin: str, problems: list):
    roots, n = POSITIVE_ROOTS[dynkin], RANK[dynkin]
    _expect_line(stdout, f"dynkin type: {dynkin}", problems)
    _expect_line(stdout, f"|ind A| = {roots}", problems)
    m = re.search(r"^left part: \d+ members, (\d+) non-projective-injective", stdout, re.M)
    if m is None or int(m.group(1)) != roots + n:
        problems.append(f"left part is not {roots} + {n} non-projective-injective")


def check_guard(stdout: str, problems: list):
    if "representation-infinite" not in stdout:
        problems.append("no representation-infinite verdict")


def check_verify(stdout: str, report_text: str, dynkin: str, problems: list):
    for name in VERIFY_CHECKS:
        _expect_line(stdout, f"[PASS] {name}", problems)
    total = len(VERIFY_CHECKS)
    _expect_line(stdout, f"{total}/{total} checks passed", problems)
    try:
        report = json.loads(report_text)
        got = [(c["check"], c["passed"], c["witnesses"]) for c in report]
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable verify report: {exc}")
        return
    witnesses = {"tilting-bijection": [f"{CLUSTER_TILTING[dynkin]} tilting modules on both sides"]}
    want = [(name, True, witnesses.get(name, [])) for name in VERIFY_CHECKS]
    if got != want:
        problems.append("verify report differs from the reference")


def check_enumerate(stdout: str, dynkin: str, problems: list):
    roots, n, count = POSITIVE_ROOTS[dynkin], RANK[dynkin], CLUSTER_TILTING[dynkin]
    for line in (
        f"|ind A| = {roots}",
        f"left part (non-projective-injective) = {roots + n}",
        f"tilting modules with left-part free summands = {count}",
        f"cluster-tilting collections = {count}",
        f"degree-product count = {count}",
        "bijection: verified",
    ):
        _expect_line(stdout, line, problems)


def check_digest(command: str, key: str, data: bytes, problems: list):
    want = DIGESTS.get((command, key))
    got = hashlib.sha256(data).hexdigest()
    if want is None:
        problems.append(f"no recorded digest for {command} {key}")
    elif got != want:
        problems.append(f"{command} {key} bytes differ from the recorded digest")
