"""Golden outputs: the sha256 of stdout and of every written file.

The commands are the README examples plus braid fillings, clasped
doubles (one with its trace replay), one dimension-8 compat/plan pair,
a splitting listing whose p has a forced part, the rulings of a
nine-crossing twist front and the JSON documents of the
generating-family commands.  Long JSON documents (the rulings of a
six-strand braid closure, 1,000 listed splittings at n = 9, a plan at
n = 10) pin the JSON writer's bytes on each Python that CI runs.  They
run in order in one work directory, so later commands read the traces
and plans written earlier; the files in FILES are written there first.
A refactor that changes any output byte, or any trace move, fails here.

Every row has one digest on every numpy SIMD tier of one machine: the
gf numbers take their powers as products and their exponentials in
long double.  CI reruns this file without numpy's AVX-512 kernels, and
test_cli.py's test_gf_output_is_the_same_without_avx512 compares the
two tiers' output of 72 gf commands.
"""

import hashlib
import os

from legcob.cli import main

def twist(k):
    return "L1 L2 " + "X3 " * k + "R2 R1"


TWIST9 = twist(9)
ZIGZAG = "L1 L2 R1 L1 R2 R1"
BRAID_BASE = "L1 L2 L3 X4 X5 X4 X5 R3 R2 R1"
POLY8 = "t^8 + 5t^7 + 4t^6 + 3t^5 + 6t^4 + 2t^3 + 3t^2 + 4t + 5"
POLY9 = "t^9 + 5t^8 + 6t^7 + 7t^6 + 8t^5 + 7t^4 + 6t^3 + 5t^2 + 4t + 5"
# at n = 4, t^6 and its mirror t^(-3) force p_6 = 2, and t^(-1) forces
# p_4 = 1
POLY4_FORCED = "2t^6 + 2t^(-3) + t^(-1) + 3t^4 + 2t^3 + 3t^2 + t + 2"
POLY10 = ("t^10 + 3t^9 + 4t^8 + 5t^7 + 6t^6 + 5t^5 + 4t^4 + 3t^3 + 2t^2 + 2t "
          "+ 3")
# the closure of a six-strand braid of 18 letters
CLOSURE6 = ("L1 L2 L3 L4 L5 L6 X7 X11 X9 X8 X10 X7 X9 X11 X8 X10 X9 X7 X11 "
            "X8 X10 X9 X7 X11 R6 R5 R4 R3 R2 R1")
# A family with two fiber variables (n = 1, N = 2): no built-in has one.
FILES = {"two-fiber.gf": "n=1\nN=2\ncore=3*e1 - 3*x1^2*e1 - e1^3 + e2^2\n"
                         "tail=-200*e1 + 3*e2\nR=3\n"}

# (argv, exit code, stdout sha256, {written file: sha256})
GOLDEN = [
    # README examples
    (["inv", "--front", "L1 L2 X3 X3 X3 R2 R1"], 0,
     "71090d36d6bd2a8e8b2e196166b9999afe89933b506d2762182d8b6deac42d82", {}),
    (["rulings", "--front", "L1 L2 X3 X3 X3 R2 R1", "--graded"], 0,
     "5f9f875db399ea1ad5114f39a891427b9c17bd4fe2c213f1705797e7f8b07aa6", {}),
    (["move", "--front", "L1 R1", "--move", "R1a 1 1", "--gf"], 0,
     "11a246edd4d9bd83797cb4b7b75f8996941b739e07d63f47db2dece0916fc081", {}),
    (["wh", "--front", "L1 R1", "--out", "wh.trace"], 0,
     "3ced316a8bb497b330a4bea94eac3c2fc4c4b57a2fdcc8aaa126afb20690055c",
     {"wh.trace":
      "3a02fdcc66bdb6661cf3f8212e3da4edf82dd3eb56f075041b397a6fc6d0765a"}),
    (["trace", "wh.trace", "--gf"], 0,
     "d6a8548738410b9a41212947ca38b6344beda0b51fb79cb86269c5f1007bf727", {}),
    (["braid", "--strands", "3", "--word", "2,1", "--fill"], 0,
     "f88121cee2c2faded777377c0b7f3735a1b73b2ea87f82a5be09b7c41341c039",
     {"braid.trace":
      "70985fd36c00b5ddeaf59b7c8bd2b6493f6a8223969bfc66f8083c7a00cbc338"}),
    (["tb", "--dim", "1", "--poly", "2 + t"], 0,
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865", {}),
    (["compat", "--dim", "3", "--poly", "t^3 + t^2 + 1"], 0,
     "f2f6e404f84b04d6f09437b0e5925321f1259825a45055d3b9a6220b2ccf85c8", {}),
    (["plan", "--dim", "3", "--poly", "t^3 + t^2"], 0,
     "d53cad7b77a8a108aad3b6d37ff0f17e2ef743ee7117b40c9f4144ad3b8763c6", {}),
    (["plan", "--dim", "3", "--poly", "t^3 + t^2", "--out", "plan.json"], 0,
     "d53cad7b77a8a108aad3b6d37ff0f17e2ef743ee7117b40c9f4144ad3b8763c6",
     {"plan.json":
      "d53cad7b77a8a108aad3b6d37ff0f17e2ef743ee7117b40c9f4144ad3b8763c6"}),
    (["plan", "--verify", "plan.json"], 0,
     "09d93ca0a125239ef292317439b10bcf7e381bfc62d5fe9c15ba2a446880c0c9", {}),
    (["gf-front", "--family", "unknot", "--svg", "front.svg"], 0,
     "45c798c11acf6c7c02a7e888018843a08191e7a0605538421e1c73064b505c72",
     {"front.svg":
      "cee2353e4a6db74ef7b37a9e281d861ffc52eb2275502306c0b465ed94de2df8"}),
    (["gf-chords", "--family", "stacked-pair"], 0,
     "6842dcadf2026a46a5137667655cf6ed29d1c5b115a73b26b5614c093be8e54c", {}),
    (["gf-spin", "--family", "unknot", "--out", "saucer.gf"], 0,
     "32601e587afd3084920547a821064e639e510dfb44b8683ce9959e8115118c5e",
     {"saucer.gf":
      "32601e587afd3084920547a821064e639e510dfb44b8683ce9959e8115118c5e"}),
    (["gf-check", "--family", "unknot", "--embedded"], 0,
     "4629ae5119ad0b5cde48b19b5acc332d7e964bc2642677fd7ae9befb0c5a92b1", {}),
    # braid fillings and their replays
    (["trace", "braid.trace", "--gf"], 0,
     "2679e3c5cec3a39992eab69e055fd86ceb56a9f2db69d2ce05b710320829f504", {}),
    (["braid", "--strands", "5", "--word", "1,4,2,3,1,2,4", "--fill", "--out",
      "b5.trace", "--svg", "b5.svg"], 0,
     "625e69a37945e78645371e9d6eb95f4bec808fa7c1ae6176ebdb5fd8d151f6cc",
     {"b5.svg":
      "ad3bba9790c6a5ba42340bfd364b71af26fb948d5d17e7184e3933b5aaa0b846",
      "b5.trace":
      "5c9f79f12187141a40d885c661db3af64f155e94bf6d9a7c7505871a24c2836e"}),
    (["trace", "b5.trace", "--gf", "--json"], 0,
     "d020d57bfa0822498ed3947dd22ddb4d361fed8df10470c572b42da1c1f1720d", {}),
    # clasped double of the trefoil and its replay
    (["wh", "--front", "L1 L2 X3 X3 X3 R2 R1", "--out", "tre.trace", "--svg",
      "tre.svg", "--json"], 0,
     "f1a73dbf93e6d82772ad915e5cd20aee846e621b095c84b1c041beb6c1002f4b",
     {"tre.svg":
      "eb9889586cb4cd1ae72b5113be66196a6720d756325ba54a4e59a9dbee49c2d2",
      "tre.trace":
      "f90bd42d289a360dc73c8794bd835494c0961b37ae4085892d7c3b4f28c16dc9"}),
    (["trace", "tre.trace", "--gf"], 0,
     "52c8a9e6a6c93dfda8e2de81020051a50530ee3cc44c6350f7c1cee3277d895c", {}),
    # clasped doubles of the zigzag, the twist fronts with nine, five and
    # seven crossings and a braid closure: their trace files pin the
    # move search
    (["wh", "--front", ZIGZAG, "--out", "zz.trace"], 0,
     "a2f9fbf1019059c0d03aa23e05f675f39981f7ad9e3772f76f03051346d94969",
     {"zz.trace":
      "e02599776095af9d375847d29672f2e4bff8abb42f3582c802b27cd71b0e2020"}),
    (["wh", "--front", TWIST9, "--out", "tw9.trace"], 0,
     "5aece3f3071d1ea56dbdda1a411f8bd957fc0b216238bd14e7d7a0018d311725",
     {"tw9.trace":
      "427046150ebfb736f39ab85ed7ea70cd00a9fe7968a42f2dc38b1a518c1db985"}),
    (["wh", "--front", twist(5), "--out", "tw5.trace", "--json"], 0,
     "57d62b0c87626ab3cff4317386fc2534b9d96b7f6b8594c5f72d80fb547b0c02",
     {"tw5.trace":
      "9599452de13e53ff11c3a2128fccf24649ca04b31c08d15c97528d6c23cc504d"}),
    (["wh", "--front", twist(7), "--out", "tw7.trace", "--json"], 0,
     "f6b8214306d77c8cf89ff7afcc2b1b3d32a68eb75b918652e35171b6fdb9846b",
     {"tw7.trace":
      "806e8d2ed5aba56b3be2742940d590a4e24fae1f184b09f801023c63a1e7ef68"}),
    (["wh", "--front", BRAID_BASE, "--out", "bb.trace"], 0,
     "6ab5474bcfb24b92ff9ee6c1235f28594b1532fe21b6cb8746ca1387dfed6160",
     {"bb.trace":
      "8c8ec9a652f8f3610c12af5f9f502e38caf6dbb4069cf9edd29783dd4eb56fef"}),
    # one dimension-8 compat/plan pair
    (["compat", "--dim", "8", "--poly", POLY8], 0,
     "a1c3114c69b3a7908c09e24e6f5170bf5703d389a476301a4b5a3fc0fce8b2dd", {}),
    (["plan", "--dim", "8", "--poly", POLY8, "--out", "plan8.json"], 0,
     "e174f0480d3601a933d9ecb45730ac9c4964eeb9be6cc298d29d3cd7481f6658",
     {"plan8.json":
      "e174f0480d3601a933d9ecb45730ac9c4964eeb9be6cc298d29d3cd7481f6658"}),
    # splittings with a forced part of p
    (["compat", "--dim", "4", "--poly", POLY4_FORCED, "--json"], 0,
     "e5e83559ad5efef02bd27bb71e9f1fcf71126ccb7ffedeeb090aa2c4ff41590c", {}),
    # rulings of a nine-crossing twist front
    (["rulings", "--front", TWIST9], 0,
     "e49f9b83b43786cbdda217d38fee0d07a7fb1513bbac8ece855e0932d4a594b8", {}),
    (["rulings", "--front", TWIST9, "--graded", "--json"], 0,
     "a17bd51c545d1ea8dcf1eb56ebbcc7b961b625673e39f0b5585007da641a60c5", {}),
    # long JSON documents: 677 rulings, 1,000 of 5,040 splittings, a
    # plan at n = 10 and a small tb
    (["rulings", "--front", CLOSURE6, "--json"], 0,
     "fdd87277b912ed6bcbc46f945ad492bce380fea73b7752a6b714c667c622ba2d", {}),
    (["rulings", "--front", CLOSURE6, "--graded", "--json"], 0,
     "435bc36383ccb4146262433d9fefece1004c73525da4acb1fd6a800be7df2a6e", {}),
    (["compat", "--dim", "9", "--poly", POLY9, "--json"], 0,
     "912e7402e1e48a49d229510e0421c1e6150873478871aeb821cae84e1d330d4a", {}),
    (["plan", "--dim", "10", "--poly", POLY10, "--json"], 0,
     "aa4698eaa1963dd4c6ddbe825ba17901ab662a86d4ce46d6a39e228085effcfc", {}),
    (["tb", "--dim", "4", "--poly", "t^4 + 2t^3 + t + 3", "--json"], 0,
     "5a943b055e7ea5250c9ca5306be384cf409929ba4ce47ac29286b8d8d7c13b94", {}),
    # generating-family JSON, every digit of every number: the chords of
    # every built-in family, the fish front and the unknot's filling
    (["gf-chords", "--family", "fish", "--json"], 0,
     "e596ab4a7295df70795883873f37a138fe39706a2e0081da2bb2175b80d21fc3", {}),
    (["gf-chords", "--family", "linear", "--json"], 0,
     "87166ae3809a5daa2fd58731bc83032af4ab0c390f7c22a929588a461a420454", {}),
    (["gf-chords", "--family", "saucer", "--step", "0.1", "--json"], 0,
     "77fafc6a401abfefec24a02db2ccb61669c34296d3c3c31a4cfe5acd0d279a25", {}),
    (["gf-chords", "--family", "scaled-unknot", "--json"], 0,
     "d7960389d978c14da4f69d55e597646cdec7614d145fd155506d4b1b9abe9028", {}),
    (["gf-chords", "--family", "shifted-unknot", "--json"], 0,
     "f6e8a329371a3e586cd5a16cba8934bf7a83836b99e532dc59da832dcb770284", {}),
    (["gf-chords", "--family", "stacked-pair", "--json"], 0,
     "8fc8fcf84d54849fb15cb0780151cced4d05b4f277d711efbf168919bb8eca7c", {}),
    (["gf-chords", "--family", "unknot", "--json"], 0,
     "656553865ad947e34933360e810171025d6a0811d11a62a18ef28d315621da6a", {}),
    (["gf-front", "--family", "fish", "--json"], 0,
     "2ab0ecb9e591ca03120c6c44b86c3c4781ac71a0aece6d3ab552c881213dc5dc", {}),
    (["gf-check", "--family", "unknot", "--embedded", "--json"], 0,
     "5faf60c5a0b88fe4f8c0226e37271c82c5b4ec4aa2b6181d8bb70103388d5e6a", {}),
    (["gf-front", "--file", "two-fiber.gf", "--step", "0.2", "--json"], 0,
     "60365fa34d80f73af8b4262a5348e843e5e35fa3920be416d3e60dc17d71c23b", {}),
]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_golden(capsys):
    """Run every GOLDEN command in the current directory and return
    the same rows with the observed code and digests."""
    out = []
    for argv, _, _, _ in GOLDEN:
        before = {f: os.stat(f).st_mtime_ns for f in os.listdir(".")}
        code = main(argv)
        stdout = capsys.readouterr().out
        written = {f: _sha(open(f, "rb").read())
                   for f in sorted(os.listdir("."))
                   if before.get(f) != os.stat(f).st_mtime_ns}
        out.append((argv, code, _sha(stdout.encode()), written))
    return out


def test_golden_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    assert run_golden(capsys) == GOLDEN

