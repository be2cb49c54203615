"""The CLI contract, generated from the field tables of `cnsmax.cli`.

Every example starts from a small valid block of one table and either gives
one field a value from that field's invalid side or adds one key no table
row names.  All examples run through `cli.run` in one child process.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import cnsmax
from cnsmax import cli

P1_MODEL = {"rho_s": 1.0, "u_s": 1.0, "b": 1.0, "kappa": 1.0, "mu": 1.0}

# One small valid block per table, so that a run of any example takes well
# under a second; the variant fields are explicit, so an added key cannot
# switch the table silently.  The model rows are perturbed on `spectrum`.
BASES = {
    "spectrum": {"n_max": 2},
    "simulate": {"N": 2, "T": 1.0, "record_points": 3, "snapshots": [0.5]},
    "control everywhere": {"variant": "everywhere", "N": 1, "T": 1.0},
    "control boundary": {"variant": "boundary", "kind": "density", "N": 1,
                         "T": 30.0},
    "control localized": {"variant": "localized", "interval": [0.0, 3.0],
                          "N": 1, "T": 30.0},
    "observability boundary": {"kind": "density", "N": 1, "T": 30.0},
    "observability interior": {"interval": [0.0, 1.0], "N": 1, "T": 1.0},
    "ingham": {"N": 1},
    "lack": {"N_list": [2, 4]},
    "stabilize": {"N": 1, "T_end": 10.0},
}
TABLES = {**cli.TABLES, "model": cli.MODEL_FIELDS}
ROOTS = [0, -1, 1e-300, 1e300, math.inf, -math.inf, math.nan, True, "1", [],
         {}, [[1]]]
STRAY = sorted({key for table in TABLES.values() for key in table}
               | {"omgea", "N_max", "seeds", "spectrum"})


def _invalid(row) -> list:
    """Values from the invalid side of one table row: past its largest
    count, the roots above, and lists holding them."""
    kind, _, *bounds = row
    values = list(ROOTS)
    if kind in (cli.COUNT, cli.COUNTS) and math.isfinite(bounds[1]):
        values.append(bounds[1] + 1)
    if kind in (cli.INTERVAL, cli.TIMES, cli.COUNTS):
        values += [[x] for x in ROOTS] + [[2, x] for x in ROOTS] + [[3, 1]]
    if kind == cli.COUNTS:
        values.append([2, bounds[1] + 1])
    return values


def _command(name: str) -> str:
    return "spectrum" if name == "model" else name.split()[0]


def _config(name, where, key, value) -> dict:
    command = _command(name)
    cfg = {"model": dict(P1_MODEL), command: dict(BASES.get(name, BASES["spectrum"]))}
    target = cfg if where == "top" else cfg["model" if name == "model" else command]
    target[key] = value
    return cfg


@st.composite
def _examples(draw):
    """(table name, where, key, value); where is 'field' for a perturbed
    row, 'block' or 'top' for an added key."""
    name = draw(st.sampled_from(sorted(TABLES)))
    if draw(st.integers(0, 3)) == 0:
        stray = [key for key in STRAY if key not in TABLES[name]
                 and key != _command(name)]
        where = draw(st.sampled_from(["block", "top"]))
        return name, where, draw(st.sampled_from(stray)), 1
    key = draw(st.sampled_from(sorted(TABLES[name])))
    return name, "field", key, draw(st.sampled_from(_invalid(TABLES[name][key])))


def _collect(n: int) -> list:
    found = {}

    @settings(derandomize=True, max_examples=n, database=None, deadline=None)
    @given(_examples())
    def collect(example):
        found.setdefault(json.dumps(example), example)

    collect()
    return list(found.values())


CHILD = """
import faulthandler, json, sys, traceback
from cnsmax.cli import run
codes = []
for command, cfg, out in json.load(open(sys.argv[1])):
    faulthandler.dump_traceback_later(60, exit=True)
    try:
        codes.append(run(command, cfg, out))
    except Exception:
        codes.append(traceback.format_exc())
    faulthandler.cancel_dump_traceback_later()
print(json.dumps(codes))
"""


def _finite_artifact(path: Path) -> bool:
    """No NaN or infinity, but for the NaN normalizers that spectrum.csv
    documents for a mode flagged as multiple."""
    lines = path.read_text().splitlines()
    if path.suffix != ".csv":
        return re.search(r"\b(NaN|Infinity|nan|inf)\b", "\n".join(lines)) is None
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        if row.get("mult_flag") == "1":
            del row["theta"], row["re_psi"], row["im_psi"]
        if not all(math.isfinite(float(cell)) for cell in row.values()):
            return False
    return True


def test_generated_configs_keep_the_contract(tmp_path):
    examples = _collect(400)
    jobs = []
    for i, example in enumerate(examples):
        cfg_path = tmp_path / f"c{i}.json"
        cfg_path.write_text(json.dumps(_config(*example)))
        jobs.append((_command(example[0]), str(cfg_path), str(tmp_path / f"o{i}")))
    (tmp_path / "jobs.json").write_text(json.dumps(jobs))
    path = [str(Path(cnsmax.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "jobs.json")],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    codes = json.loads(proc.stdout)
    status = {0: "ok", 2: "validation-error", 3: "numerical-failure"}
    for i, (example, code) in enumerate(zip(examples, codes)):
        assert code in status, (example, code)
        if example[1] != "field":
            assert code == 2, example
        text = (tmp_path / f"o{i}" / "summary.json").read_text()
        assert "NaN" not in text and "Infinity" not in text, example
        summary = json.loads(text)
        assert summary["status"] == status[code], example
        for name in summary.get("artifacts", []) if code == 0 else []:
            assert _finite_artifact(tmp_path / f"o{i}" / name), (example, name)


def test_every_table_has_a_base_block():
    assert set(BASES) == set(cli.TABLES)
    for name, block in BASES.items():
        assert cli.table_name(_command(name), block) == name
        assert set(block) <= set(cli.TABLES[name])


def _cell(key: str, row) -> str:
    """The README pattern of one table row: `key` (default; bounds), where a
    default or bound the program computes may read as anything."""
    kind, default, *bounds = row
    text = [".+?" if callable(b) else re.escape(str(b)) for b in bounds]
    bound = {
        cli.COUNT: "..".join(text),
        cli.COUNTS: "each " + "..".join(text),
        cli.CHOICE: "/".join(text),
        cli.POSITIVE: "> 0",
        cli.FLAG: "true/false",
        cli.INTERVAL: re.escape("0 <= l1 < l2 <= 2 pi"),
        cli.TIMES: "each >= 0",
    }[kind]
    shown = ".+?" if callable(default) else re.escape(json.dumps(default))
    return rf"`{key}` \({shown}; {bound}\)"


def test_readme_block_table_follows_the_tables():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [line for line in readme.splitlines() if re.match(r"\| `[a-z]+`", line)]
    assert len(rows) == len(cli.TABLES)
    for name, table in cli.TABLES.items():
        command, *variant = name.split()
        cells = ", ".join(_cell(key, row) for key, row in table.items())
        head = re.escape(" ".join([f"`{command}`", *variant]))
        pattern = rf"\| {head} \| {cells} \| [^|]+ \|"
        assert any(re.fullmatch(pattern, row) for row in rows), name
