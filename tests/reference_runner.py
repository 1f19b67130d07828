"""Scalar oracle for ``WorkloadRunner`` (tests only): the public scalar store
API one op at a time, ``busy_seconds()`` snapshots around every call, share and
queueing math in plain Python floats.  RNG use (request keys drawn per
insert-free stretch, one exponential draw per op type) is the runner's contract."""

import numpy as np

from repro.common.keys import encode_key
from repro.common.stats import LatencyHistogram
from repro.ycsb.runner import CPU_PER_BYTE, CPU_PER_OP, WorkloadRunner
from repro.ycsb.workload import OpType


class ReferenceRunner(WorkloadRunner):
    def load(self, shuffle=True):
        ids = np.arange(self.record_count)
        if shuffle:
            self.rng.shuffle(ids)
        put = self.store.put
        total = sum((put(encode_key(k), self._values([k])[0]) for k in ids.tolist()), 0.0)
        self.store.finalize()
        return total

    def _execute(self, spec, ops, choice_list, generator, device_objs, trace):
        names = list(self.store.devices())
        per_op, cpu_total, fg_total = [], 0.0, 0.0
        key_buf, pos = [], 0
        for i, code in enumerate(choice_list):
            op, cpu = ops[code], CPU_PER_OP
            before = [d.busy_seconds() for d in device_objs]
            if op is OpType.INSERT:
                kid = self.record_count + self._insert_count
                self._insert_count += 1
                generator.set_item_count(self.record_count + self._insert_count)
            else:
                if pos >= len(key_buf):  # draw up to the next insert
                    stretch = [ops[c] for c in choice_list[i:]] + [OpType.INSERT]
                    key_buf, pos = generator.next_many(stretch.index(OpType.INSERT)), 0
                kid, pos = int(key_buf[pos]), pos + 1
            key = encode_key(kid)
            if op is OpType.READ:
                _, service = self.store.get(key)
            elif op is OpType.SCAN:
                pairs, service = self.store.scan(key, spec.scan_length)
                cpu += CPU_PER_BYTE * sum(len(v) for _, v in pairs)
            else:  # UPDATE / INSERT / RMW (= get then put)
                s1 = self.store.get(key)[1] if op is OpType.RMW else None
                service = self.store.put(key, self._values([kid])[0])
                service = service if s1 is None else s1 + service
                cpu += CPU_PER_BYTE * self.value_size
            shares, moved = {}, 0.0
            for name, dev, b in zip(names, device_objs, before):
                delta = dev.busy_seconds() - b
                if delta > 0:
                    shares[name] = delta
                    moved += delta
            if not (moved > 0 and service > 0):
                shares = {}
            elif service / moved < 1.0:  # normalize to the foreground service
                shares = {n: v * (service / moved) for n, v in shares.items()}
            per_op.append((op, service + cpu, shares))
            cpu_total += cpu
            fg_total += service
        return cpu_total, fg_total, per_op

    def _latencies(self, ops, per_op, device_names, rho_by_device):
        factor = {n: r / (1.0 - r) for n, r in rho_by_device.items()}
        out = {}
        for op in ops:
            mine = [(s, sh) for o, s, sh in per_op if o is op]
            if not mine:
                continue
            arr = np.asarray([s for s, _ in mine])
            queued = np.array(
                [sum(v * factor.get(n, 0.0) for n, v in sh.items()) for _, sh in mine]
            )
            hist = LatencyHistogram(initial_capacity=max(16, len(arr)))
            hist.record_many(arr + queued * self.rng.exponential(1.0, size=len(arr)))
            out[op.value] = hist
        return out
