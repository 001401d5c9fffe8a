"""The pinned CLI outputs: the sha256 of what each command prints, or of
the file it writes with ``--out``. ``tests/test_cli.py`` runs every pin
in-process. Run as a script (standard library only, so under any
interpreter), this file runs each pin as a child process, prints one line
per pin and exits 1 if any output differs:

    python tests/pins.py          # python -m tvkl.cli on this repo's src/
    python tests/pins.py tvkl     # the installed console script
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# One pin a line: the sha256, two spaces, then the command's words. A word
# that names a file in FILES is written before the command runs. At
# `bound forward 40` bh and tsybakov sit on the largest double below 1, and
# no double below 1 bounds vajda's root, so it reads 1.0, vacuous.
PINS = dict(line.split("  ", 1)[::-1] for line in """
30bee16fb35ace633c2187581579382fc9e064ec1c5aa7fc636eb3e75d8ca41b  figure fig_pinsker --points 501 --out fig.csv
53043d125d1aa4a8da9b20d913a0171b67e2b8b8f9403b0b07a26578e2336171  figure fig_forward --points 501 --out fig.csv
782861e1acd4b7fb7be0161cd3097654138ba7ab59c9e886319914b14e83a94c  figure fig_inverse --points 501 --out fig.csv
0421a88f8634843064854554d55653048dfc612ffc0d5a5adfe4affe38bff7d3  figure fig_weak --points 501 --out fig.csv
cda3ed05ebfa1209ce39b929c3585e63b541a395aafd339572c7987463784a7c  figure fig_forward --points 11 --out fig.csv
d25898d4d1768f8cfff2370982057807d88801457dc7baf0f03d7e23f4f4af90  --json bound forward 0
cce3d8956aa6c1229f07e9314080c41481e8c220785fffbf10c1906953e5511d  --json bound forward 5e-324
4e9d4b75890156776063452ae8712fd45df45b30bd4b8e8af43a33e552f577ba  --json bound forward 1e-300
8099fe3a5f82e63dffd0fc26ac16cd8165c5a05fe8357d5f130a0ae5fd1c2da6  --json bound forward 1e-12
f4cc23613555004052f9b33e9935a3a56a7dcdae20cdf948accd242d4cf20ac1  --json bound forward 0.02
09251bfaafe87df35e72e3dfb2d8202fabe17ebd86f3fe7a829c5e583fece682  --json bound forward 1
037c2935eabf5c625d0057b2640d871722673a546e3073f318abb51892b52d50  --json bound forward 2
116d2ba43895088727f899017203504690741e613d17d5eda6e26b0340fcf7ff  --json bound forward 37
c241e4b16d0f6ee86f79fd77703e5fb94e7d0bbddecd336d5c405ee3956937e4  --json bound forward 40
776597453062684e1439cf58a421d1040420391de0b962b76568f2fec6486098  --json bound forward 50
0c602727bd8963a1b431e8ad4bdbe1e2a243340298f7023f4a255a14eda0ab55  --json bound forward 700
9fd4d8ebf79b5f4dc4ab1b0ab779f01f011321e55f6392b7041684555bcb3d58  --json bound forward inf
eb2708fe03ec903699f5664b534109893602815ee0890dd2b697dabe7a4cef0c  --json bound inverse 0
7ddfd85a4aabf6ff193f531744632f94e21d6515810adde240aee2faa7214a27  --json bound inverse 5e-324
c0921bb314bb299237865ac5fb2cd9ede2518a59f07712d8f7c5c3a86581ed7a  --json bound inverse 1e-12
6304cb86aa60d6efdcecca7e111c8e7aa30380ee43fb7ff62710f84429a6b00f  --json bound inverse 1e-8
f7ec1717a2884182449416c217bbeb6658f2b72776a680e9807ce444af215c67  --json bound inverse 0.45
b56c1d4c054c5033074ab3781ac98a162e8df043b4e7a2bd20f80442e5f121f4  --json bound inverse 0.5
76e0c860f0fc7fa29bd4c72ada003e2214a879851ff035d5ccf851e3b8f776c9  --json bound inverse 0.75
4c9dc3146332398bb362eb055f60894991de8dc56414583942bb31a5ee40f61e  --json bound inverse 0.9999999999999999
4d12a3fad8415bff7e3d2b6b45381613e0cf871019c72f405fe0264cc0cf9205  --json bound inverse 1
e9250312ab070f091df85ca4c8c638f47a75f2cb69b9ec8ac994012f3fbb4459  --json samples 0.1 0.01
5b7efe11427cf2a4465191f8452c14697b059a8e2725daadd35f0848055f6576  --json samples 0.3 0.4
72fce77411e121286c7613102d05c6695a709dc2daa131d3fe682b123ab6be9c  --json samples 1e-6 1e-9
d34ccf423f8f9cb88c653bac6a5050e81bb752f40445ea2c2c2f00717a36e8eb  samples 0.1 0.01
600e757bc04c54940c0ee70e5d1c9f1e097bb255c62c943a8e525924687f1ac6  samples 0.3 0.4
72bebc55ac99060c8871a261d82918889deded5a1ef8358a0dc2521f31d82973  samples 1e-6 1e-9
79c45a8b1217a4189c367ab469a71fee55854d36dea5c413e5d115f3676a5e8a  samples 0.1 0.01 --ceil
5f020d6b084333b0a375a0e85350d683bf0a39f4f1ee70b0a410c9d9cd9c8a99  samples 0.3 0.4 --ceil
1e72a17c17d147c02847adb2989057e37f00c4c6204dbcb735ac45d3a9c49ff6  samples 1e-6 1e-9 --ceil
0f2a1ade04d0ebf04a4147e38c4147383a94b1a160b71b3d0027b14beda731a5  samples 0.1 0.01 --json --ceil
edb1e79e6434a8b407b8aa20738c531ff31948ba0243d7e23bf0f04bfb70f3d8  samples 0.3 0.4 --json --ceil
a0bb33672132695b532bf7737d8e63f709470db14c46bcd8b78e49976f62e242  samples 1e-6 1e-9 --json --ceil
9e64e1b7c82d47a2865ee9167820f92d03caa80e6055ab35569fd84dc09a5e95  verify all --seed 42 --resolution 40 --trials 50 --atoms 8
2282bf19fdb597b9e73a8412b67a04fcc86b1d4fca13cc1bd8c11fd3f9884bfc  --json verify all --seed 42
75ea55b91f49f5b1acf66958debbdefc83efd1756dd27184d849678a4b112019  --json verify derivation --seed 42
56a17dcfebf5fabe5edd147b0943da5440f136a9346c3ae3fe003ed06caa1808  --json div relabelled_p.json relabelled_q.json
7a81a581d34e8da5241f8a2b43443a9923a52b0220154d8f13db02344a87b77b  --json div q_only_p.json q_only_q.json
d2352b789b9e00c9962514af90fce6e2f0472121b2a675532dd65cd676a06284  --json div subnormal_p.json subnormal_q.json
4a1096a712121c61133930ecf5d9bc6ab951757657b5e5c03e1641e4088dba0b  --json div rotated_p.json rotated_q.json
9bc6365e377bef6bd6180ceffb5c79e5ead6580e8b28e9e4171dbed91de5eb8e  --json div padded_p.json padded_q.json
cac48bfe85e563080468145b0313d61ab5a6288e58ffcee7e2876b96462ff44f  --json div padded_q.json padded_p.json
cacedf8ed55777d9387d7d59f4bd6cbaeefb4324c1e6809e3c3aa041e883a7c5  --json dv shared_zero_p.json shared_zero_q.json --trials 20
a5bbfccee4d4ab63a058fef2b14f00247c1e3117ec74fe628178694b7dc028dd  --json dv subnormal_p.json subnormal_q.json --trials 20
a069263f8a6fd9a0772a2c2a99613069ab073913c6e11cc145c28509aeda6323  dv fair.json biased.json --trials 50
""".strip().splitlines())

# The distribution files. relabelled, rotated: q lists p's labels in another
# order; q_only, padded: q has a label p lacks (padded reversed puts it on p,
# where KL is infinite); subnormal: subnormal weights on both sides;
# shared_zero: label c is empty on both sides, so KL drops its term.
FILES = {
    "fair.json": {"probs": [0.5, 0.5]},
    "biased.json": {"probs": [0.6, 0.4]},
    "relabelled_p.json": {"support": ["a", "b", "c", "d"], "probs": [0.1, 0.2, 0.3, 0.4]},
    "relabelled_q.json": {"support": ["d", "c", "b", "a"], "probs": [0.1, 0.3, 0.35, 0.25]},
    "rotated_p.json": {"support": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5]},
    "rotated_q.json": {"support": ["c", "a", "b"], "probs": [0.4, 0.35, 0.25]},
    "q_only_p.json": {"support": ["x", "y"], "probs": [0.7, 0.3]},
    "q_only_q.json": {"support": ["y", "z", "x"], "probs": [0.2, 0.1, 0.7]},
    "padded_p.json": {"support": ["a", "b"], "probs": [0.6, 0.4]},
    "padded_q.json": {"support": ["b", "z", "a"], "probs": [0.3, 0.2, 0.5]},
    "subnormal_p.json": {"support": ["a", "b", "c"], "probs": [1e-310, 0.5, 0.5]},
    "subnormal_q.json": {"support": ["a", "b", "c"], "probs": [5e-324, 0.4, 0.6]},
    "shared_zero_p.json": {"support": ["a", "b", "c"], "probs": [0.5, 0.5, 0.0]},
    "shared_zero_q.json": {"support": ["c", "b", "a"], "probs": [0.0, 0.6, 0.4]},
}


def check(command, run, folder):
    """Run one pinned command through ``run(argv) -> (exit code, stdout
    bytes)``, with its files in folder. Returns None if the output matches
    the pin, else what went wrong."""
    words = command.split()
    argv = [os.path.join(folder, w) if w.endswith((".json", ".csv")) else w for w in words]
    for word, path in zip(words, argv):
        if word in FILES:
            Path(path).write_text(json.dumps(FILES[word]), encoding="utf-8")
    code, out = run(argv)
    if code != 0:
        return f"exit {code}"
    if "--out" in argv:
        try:
            out = Path(argv[argv.index("--out") + 1]).read_bytes()
        except OSError as exc:
            return f"--out: {exc}"
    digest = hashlib.sha256(out).hexdigest()
    return None if digest == PINS[command] else f"sha256 {digest}, pinned {PINS[command]}"


def check_all(run, commands=tuple(PINS)):
    """Check each command in a fresh folder and print one line for it.
    Returns the exit status: 1 if any output differs from its pin."""
    failed = 0
    for command in commands:
        with tempfile.TemporaryDirectory() as folder:
            problem = check(command, run, folder)
        failed += problem is not None
        print(f"FAIL  {command}: {problem}" if problem else f"ok    {command}")
    print(f"{len(commands) - failed} of {len(commands)} pins match")
    return 1 if failed else 0


def main(command):
    env = dict(os.environ)
    if not command:
        command = [sys.executable, "-m", "tvkl.cli"]
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(argv):
        proc = subprocess.run([*command, *argv], stdout=subprocess.PIPE, env=env)
        return proc.returncode, proc.stdout

    return check_all(run)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
