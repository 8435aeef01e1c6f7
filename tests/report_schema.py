"""The jsonschema document a JSON study report validates against.

Its row keys come from kdvlri.studies.COLUMNS, the one definition of a row,
and its scheme names from SchemeKind.
"""

from kdvlri.integrators import SchemeKind
from kdvlri.studies import COLUMNS, LOCAL_EMPTY

SCHEME_NAMES = {"enum": [k.value for k in SchemeKind]}
REPORT_JSON_SCHEMA = {
    "type": "object",
    "required": ["kind", "metadata", "rows", "fits", "flags"],
    "properties": {
        "kind": {"enum": ["convergence", "local_error"]},
        "metadata": {
            "type": "object",
            "required": ["n_points", "gamma"],
            "properties": {
                "n_points": {"type": "integer", "minimum": 4},
                "theta": {"type": "number", "minimum": 0},
                "seed": {"type": "integer", "minimum": 0},
                "gamma": {"type": "number", "minimum": 0},
                "t_final": {"type": "number", "exclusiveMinimum": 0},
                "ref_tau": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": list(COLUMNS),
                "properties": dict(zip(COLUMNS, (
                    SCHEME_NAMES,
                    {"type": "number", "exclusiveMinimum": 0},
                    {"type": ["number", "null"], "minimum": 0},  # null: diverged
                    {"type": "number", "minimum": 0},
                    {"type": "integer"},
                    {"type": ["number", "null"]},  # null: local-error row
                    {"type": ["integer", "null"]},
                    {"type": ["number", "null"]},
                    {"enum": ["ok", "diverged"]},
                ))),
            },
        },
        "fits": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["scheme", "fitted_order", "fit_residual", "excluded_taus"],
                "properties": {
                    "scheme": SCHEME_NAMES,
                    "fitted_order": {"type": ["number", "null"]},
                    "fit_residual": {"type": ["number", "null"]},
                    "excluded_taus": {"type": "array", "items": {"type": "number"}},
                },
            },
        },
        "flags": {"type": "array", "items": {"type": "string"}},
    },
    "if": {"properties": {"kind": {"const": "convergence"}}},
    "then": {"properties": {
        "metadata": {"required": ["theta", "seed", "t_final", "ref_tau"]},
        "rows": {"items": {
            "properties": dict.fromkeys(LOCAL_EMPTY, {"type": "number"})}},
    }},
}
