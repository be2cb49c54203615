"""The CLI contract, generated from the field tables of `cnsmax.cli`.

Every example starts from a small valid block of one table and either gives
one field a value from that field's invalid side or adds one key no table
row names, and each must exit 2.  The examples are exhaustive: every
invalid value of every row, and every stray key in the block and at the
top.  Whether a value is invalid is decided here, from the row's type and
bounds, not by the CLI's own conversion.  All examples run through
`cli.run` in one child process.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

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


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _valid(kind, value, bounds) -> bool:
    """Whether value is of the row's type within its bounds; a bound the
    CLI computes from other fields (a callable) counts as no bound."""
    known = [None if callable(b) else b for b in bounds]
    if kind == cli.COUNT:
        lo, hi = known
        return (_number(value) and value == int(value)
                and (lo is None or value >= lo) and (hi is None or value <= hi))
    if kind == cli.POSITIVE:
        return _number(value) and value > 0
    if kind == cli.FLAG:
        return isinstance(value, bool)
    if kind == cli.CHOICE:
        return isinstance(value, str) and value in bounds
    if not (isinstance(value, list) and all(
            _valid(cli.COUNT, x, bounds) if kind == cli.COUNTS else _number(x) and x >= 0
            for x in value)):
        return False
    if kind == cli.INTERVAL:
        return len(value) == 2 and value[0] < value[1] <= 2 * math.pi
    distinct = len(set(value)) == len(value)
    if kind == cli.TIMES:
        return distinct and (known[0] is None or len(value) <= known[0])
    return distinct and len(value) >= 2


def _invalid(row) -> list:
    """Values from the invalid side of one table row: past its largest
    count, the roots above, and lists holding them, each kept only if
    `_valid` refuses it for the row."""
    kind, _, *bounds = row
    values = list(ROOTS)
    if kind in (cli.COUNT, cli.COUNTS) and math.isfinite(bounds[1]):
        values.append(bounds[1] + 1)
    if kind in (cli.INTERVAL, cli.TIMES, cli.COUNTS):
        values += [[x] for x in ROOTS] + [[2, x] for x in ROOTS] + [[3, 1], [2, 2, 3]]
    if kind == cli.COUNTS:
        values.append([2, bounds[1] + 1])
    return [v for v in values if not _valid(kind, v, bounds)]


def _command(name: str) -> str:
    return "spectrum" if name == "model" else name.split()[0]


def _config(name, where, key, value) -> dict:
    command = _command(name)
    cfg = {"model": dict(P1_MODEL), command: dict(BASES.get(name, BASES["spectrum"]))}
    target = cfg if where == "top" else cfg["model" if name == "model" else command]
    target[key] = value
    return cfg


def _examples() -> list:
    """Every (table name, where, key, value): each invalid value of each
    row ('field'), and each key no row of the table names, added to its
    block ('block') and to the top of the config ('top')."""
    found = []
    for name, table in sorted(TABLES.items()):
        for key, row in sorted(table.items()):
            found += [(name, "field", key, value) for value in _invalid(row)]
        for key in STRAY:
            if key not in table and key != _command(name):
                found += [(name, where, key, 1) for where in ("block", "top")]
    return found


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
    examples = _examples()
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
        assert code == 2, (example, code)
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
        cli.TIMES: "distinct, each >= 0, at most " + "".join(text),
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
