"""Scalar reference pricing: one step at a time, in plain Python floats.

This is the step-by-step cost model the table pricer
(:meth:`repro.gpusim.costmodel.CostModel.price`) must reproduce bit for
bit.  Tests only: the library prices whole tables.
"""

from __future__ import annotations

import math

from repro.gpusim.costmodel import CostModel, CTACost, StepCost, bitonic_stage_count
from repro.gpusim.trace import CTATrace, StepRecord


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _merge_stages(n: int) -> int:
    if n <= 1:
        return 0
    return max(1, math.ceil(math.log2(n)))


def sort_cost_us(cm: CostModel, step: StepRecord) -> float:
    """Bitonic sort of the expand list + merge into the candidate list."""
    p, t = cm.params, cm.threads
    expand_n = max(step.sort_size - step.cand_list_len, 0)
    cycles = 0.0
    if expand_n > 1:
        n = 1 << max(1, math.ceil(math.log2(expand_n)))
        cycles += bitonic_stage_count(expand_n) * _ceil_div(n // 2, t) * p.cmpex_cycles
    if step.sort_size > 1:
        n = 1 << max(1, math.ceil(math.log2(step.sort_size)))
        cycles += _merge_stages(step.sort_size) * _ceil_div(n // 2, t) * p.cmpex_cycles
    return cm.device.cycles_to_us(cycles)


def step_cost(cm: CostModel, step: StepRecord) -> StepCost:
    """Price a single search step."""
    p, t, dev = cm.params, cm.threads, cm.device
    us = dev.cycles_to_us
    select = us(_ceil_div(max(step.cand_list_len, 1), t) * p.scan_cycles * step.n_expanded)
    fetch = (
        step.n_expanded * us(dev.global_mem_latency_cycles)
        + step.n_neighbors_fetched * 4 / (dev.global_mem_bw_gbps * 1e3)
    )
    filter_ = (
        us(_ceil_div(max(step.n_visited_checks, 1), t) * p.bitmap_cycles)
        if step.n_visited_checks
        else 0.0
    )
    distance = 0.0
    if step.n_new_points:
        reduce_steps = step.n_new_points * max(1, int(math.log2(t)))
        if step.precision == "int8":
            pack = max(int(p.int8_mac_pack), 1)
            iters = _ceil_div(step.n_new_points * step.dim, t * pack)
            lane_cycles = iters * p.fma_iter_cycles
            vec_bytes = step.n_new_points * step.dim * 1
        elif step.precision == "pq":
            iters = _ceil_div(step.n_new_points * step.dim, t)
            lane_cycles = iters * p.lut_lookup_cycles
            vec_bytes = step.n_new_points * step.dim * 1
        else:
            iters = _ceil_div(step.n_new_points * step.dim, t)
            lane_cycles = iters * p.fma_iter_cycles
            vec_bytes = step.n_new_points * step.dim * 4
        distance = us(lane_cycles + reduce_steps * p.shuffle_cycles) + vec_bytes / (
            dev.global_mem_bw_gbps * 1e3
        )
    sort = sort_cost_us(cm, step) if step.did_sort else 0.0
    return StepCost(select + us(p.step_fixed_cycles), fetch, filter_, distance, sort)


def cta_cost(cm: CostModel, trace: CTATrace) -> CTACost:
    """Aggregate cost of one CTA: phases summed step by step from 0.0."""
    sel = fet = fil = dis = srt = 0.0
    for s in trace.steps:
        c = step_cost(cm, s)
        sel += c.select_us
        fet += c.fetch_us
        fil += c.filter_us
        dis += c.distance_us
        srt += c.sort_us
    write = 0.0
    if trace.result_len:
        dev = cm.device
        write = dev.cycles_to_us(dev.global_mem_latency_cycles) + (
            trace.result_len * 8 / (dev.global_mem_bw_gbps * 1e3)
        )
    return CTACost(sel, fet, fil, dis, srt, write, trace.n_steps)
