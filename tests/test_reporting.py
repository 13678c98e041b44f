import json
import math

import numpy as np
import pytest

from apsflow.reporting import canonical_json, eigenflow_rows, to_jsonable
from apsflow.families import linear_family
from apsflow.matrixcore import HermitianMatrix


class TestToJsonable:
    def test_numpy_scalars_and_arrays(self):
        out = to_jsonable({"a": np.int64(3), "b": np.float64(0.5), "c": np.arange(3)})
        assert out == {"a": 3, "b": 0.5, "c": [0, 1, 2]}

    def test_complex_becomes_pair(self):
        assert to_jsonable(1 + 2j) == [1.0, 2.0]
        assert to_jsonable(np.complex128(3 - 1j)) == [3.0, -1.0]

    def test_non_finite_floats_stringified(self):
        out = to_jsonable({"gap": math.inf, "bad": math.nan, "np": np.float64("inf")})
        assert out == {"gap": "inf", "bad": "nan", "np": "inf"}

    def test_non_finite_complex_parts_stringified(self):
        assert to_jsonable(complex(math.inf, 0.0)) == ["inf", 0.0]
        assert to_jsonable(np.complex128(complex(1.0, math.nan))) == [1.0, "nan"]
        assert json.loads(canonical_json({"z": complex(math.inf, 0.0)})) == {"z": ["inf", 0.0]}

    def test_canonical_json_is_strict_and_stable(self):
        payload = {"z": [1.5, math.inf], "a": {"nested": (1, 2)}}
        text = canonical_json(payload)
        json.loads(text)  # strict parse must succeed
        assert text == canonical_json(payload)
        assert text.index('"a"') < text.index('"z"')  # sorted keys

    def test_unknown_type_raises_instead_of_writing_its_str(self):
        # str(object()) holds a memory address, which would break byte-determinism
        with pytest.raises(TypeError, match="object"):
            canonical_json({"x": object()})
        with pytest.raises(TypeError, match="set"):
            to_jsonable({1, 2})


class TestEigenflowRows:
    def test_scalar_crossing_rows(self):
        f = linear_family(
            HermitianMatrix(np.diag([-0.5])), HermitianMatrix(np.diag([1.0])), 1.0
        )
        rows = eigenflow_rows(f, samples=5)
        assert len(rows) == 5
        assert rows[0] == [0.0, -0.5]
        assert rows[-1] == [1.0, 0.5]
