from repro.interp import Interpreter, OpMix
from repro.workloads import get

from tests.conftest import record_function


def _mix(name):
    module, fn, run_args = get(name).build()
    return OpMix.from_trace(record_function(module, fn, [run_args]))


def _loop_mix(m, fn, n):
    return OpMix.from_trace(record_function(m, fn, [[n]]))


def test_opmix_counts_everything(counted_loop):
    m, fn = counted_loop
    mix = _loop_mix(m, fn, 10)
    # entry (1) + 11 headers (4 insts w/ phis) + 10 bodies (4) + exit (1)
    assert mix.total == 1 + 11 * 4 + 10 * 4 + 1
    assert mix.opcodes["mul"] == 10
    assert mix.opcodes["condbr"] == 11


def test_shares_partition_unity(counted_loop):
    m, fn = counted_loop
    mix = _loop_mix(m, fn, 10)
    total = mix.fp_share + mix.memory_share + mix.control_share + mix.int_share
    assert abs(total - 1.0) < 1e-9


def test_fp_workload_is_fp_dominated():
    lbm = _mix("470.lbm")
    gzip = _mix("164.gzip")
    assert lbm.fp_share > 0.3
    assert lbm.fp_share > 3 * gzip.fp_share
    assert gzip.fp_share < 0.1


def test_memory_share_ordering():
    hmmer = _mix("456.hmmer")
    blackscholes = _mix("blackscholes")
    assert hmmer.memory_share > blackscholes.memory_share


def test_top_opcodes(counted_loop):
    m, fn = counted_loop
    top = _loop_mix(m, fn, 10).top(2)
    assert len(top) == 2
    assert top[0][1] >= top[1][1]


def test_filter_excludes(caller_and_callee):
    m, main, sq = caller_and_callee
    interp = Interpreter(m, record=[sq])
    interp.run("main", [1])
    # only the recorded callee is counted: two calls of (mul, ret)
    mix = OpMix.from_trace(interp.traces[sq])
    assert dict(mix.opcodes) == {"mul": 2, "ret": 2}
    assert main not in interp.traces
