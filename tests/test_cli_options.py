"""Every subcommand's options, pinned field by field.

The golden in ``data/cli_options.json`` records each argparse action of each
subcommand: its option strings, dest, default, type, choices, nargs, const,
required, metavar, help and action class.  That pins what a user can type
and what each flag sets without pinning ``--help``'s layout, which argparse
formats differently from one Python version to the next.  The ``spec``
choices are left out: they follow registrations (``test_registry.py``).

After a deliberate change to the options, re-record the golden with
``PYTHONPATH=src python tests/test_cli_options.py``.
"""

import json
import os
import sys

from repro.pipeline.cli import build_parser

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_options.json")


def _action(action):
    return {
        "class": type(action).__name__,
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "type": getattr(action.type, "__name__", action.type),
        "choices": None if action.dest == "spec" or action.choices is None
        else list(action.choices),
        "nargs": action.nargs,
        "const": action.const,
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
    }


def describe():
    """The parser as plain JSON data: ``{command: {help, actions}}``."""
    parser = build_parser()
    (commands,) = [
        action for action in parser._actions if action.dest == "command"
    ]
    helps = {choice.dest: choice.help for choice in commands._choices_actions}
    described = {
        name: {
            "help": helps[name],
            "actions": [_action(action) for action in sub._actions],
        }
        for name, sub in commands.choices.items()
    }
    return json.loads(json.dumps(described))


def test_every_option_matches_the_golden():
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    current = describe()
    assert sorted(current) == sorted(golden)
    for command in golden:
        assert current[command]["help"] == golden[command]["help"], command
        assert [a["dest"] for a in current[command]["actions"]] == [
            a["dest"] for a in golden[command]["actions"]
        ], command
        for now, pinned in zip(current[command]["actions"], golden[command]["actions"]):
            assert now == pinned, (command, pinned["dest"])


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(describe(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    sys.exit(0)
