"""Suite report containers shared by the verification layers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckItem:
    relation: str
    params: dict
    passed: bool
    witness: dict | None = None
    expected_nonzero: bool = False

    def to_json(self) -> dict:
        out = {
            "relation": self.relation,
            "params": self.params,
            "pass": self.passed,
            "witness": self.witness,
        }
        if self.expected_nonzero:
            out["expected_nonzero"] = True
        return out


@dataclass
class CheckSuite:
    name: str
    items: list[CheckItem] = field(default_factory=list, init=False)

    def add(self, relation, params, passed, witness=None, expected_nonzero=False):
        self.items.append(
            CheckItem(relation, dict(params), passed, witness, expected_nonzero)
        )

    def extend(self, other: "CheckSuite"):
        self.items.extend(other.items)

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.items)

    def failures(self) -> list[CheckItem]:
        return [i for i in self.items if not i.passed]

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "pass": self.passed,
            "checks": [i.to_json() for i in self.items],
        }
