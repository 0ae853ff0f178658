from repro.sim import DEFAULT_CONFIG, EnergyModel, OOOResult


def _model():
    return EnergyModel(DEFAULT_CONFIG.energy, DEFAULT_CONFIG.cgra)


def test_host_energy_arithmetic():
    e = DEFAULT_CONFIG.energy
    census = OOOResult(
        instructions=10, int_ops=4, fp_ops=2, loads=3, stores=1,
        branches=0, l2_hits=2, dram_accesses=1,
    )
    bd = _model().host_energy(census)
    assert bd.frontend_pj == 10 * e.host_frontend_pj
    assert bd.window_pj == 10 * e.host_window_pj
    assert bd.fu_pj == 4 * e.host_int_op_pj + 2 * e.host_fp_op_pj
    assert bd.memory_pj == (
        4 * e.l1_access_pj + 2 * e.l2_access_pj + 1 * e.dram_access_pj
    )
    assert bd.total_pj == (
        bd.frontend_pj + bd.window_pj + bd.fu_pj + bd.memory_pj
    )


def test_frame_energy_uses_table_v_constants():
    c = DEFAULT_CONFIG.cgra
    bd = _model().frame_energy(
        n_int_ops=10, n_fp_ops=5, n_mem_ops=2, n_edges=20, l2_accesses=2
    )
    assert bd.fu_pj == 10 * c.int_fu_pj + 5 * c.fp_fu_pj
    assert bd.network_pj == 20 * c.network_pj
    assert bd.latch_pj == 17 * c.latch_pj
    assert bd.frontend_pj == 0 and bd.window_pj == 0  # the whole point


def test_transfer_energy():
    bd = _model().transfer_energy(7)
    assert bd.transfer_pj == 7 * DEFAULT_CONFIG.energy.transfer_per_value_pj
    assert bd.total_pj == bd.transfer_pj
