"""The blowup models of the built-in link scenarios, built from their own setups."""

from fanocalc import dsl
from fanocalc.scenarios import BUILTIN_SOURCES

# Model key -> the built-in scenario whose profile and center statements give it.
SOURCES = {
    "p4-line": "sanity-p4-line",
    "w22-line": "w22-line-link",
    "w22-quintic": "v12-link",
    "w5-xi": "w5-xi-link",
    "w5-pi": "w5-pi-link",
    "v14-plane": "v14-link",
}


def scenario_model(source: str):
    """The model of a one-scenario document, as the scenario resolves it."""
    (node,) = dsl.parse(source).scenarios
    return dsl._Setup(node.setups).model()


def builtin_models() -> dict:
    """Each model as the scenario resolves it, center cross-checks included."""
    return {key: scenario_model(BUILTIN_SOURCES[name]) for key, name in SOURCES.items()}


def normal_c2(model) -> int:
    """c_2(N) of a surface center, from E^4 = c_2(N) - c_1(N)^2 and c_1(N) = r H|_S + K_S."""
    s, r = model.center, model.base.index
    return model.monomials[4] + r * r * s.hhc + 2 * r * s.hkc + s.kc2
