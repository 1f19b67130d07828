"""A minimal extent-allocating filesystem over a :class:`SimDevice`.

Files store real bytes (engines read back exactly what they wrote), while
page allocation and every read/write charges the owning device, so space and
traffic accounting match what a real filesystem would issue.

Fault semantics (when the device carries a
:class:`repro.simssd.faults.FaultInjector`):

* a write that fails transiently beyond the retry policy raises
  :class:`~repro.common.errors.TransientIOError` *before* any byte is
  persisted (the failed attempts are still charged);
* a write in flight at an injected crash point is **torn**: only a seeded
  prefix of its payload reaches media, then
  :class:`~repro.common.errors.PowerLossError` propagates and every further
  operation fails until :meth:`SimFilesystem.post_crash_image` freezes the
  surviving bytes into a fresh, powered-on filesystem;
* a successful write may persist with one flipped bit (media corruption) —
  readers get the corrupt bytes and engine checksums must catch them.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.common.errors import ClosedError, PowerLossError, ReproError
from repro.simssd.device import SimDevice
from repro.simssd.faults import FaultInjector, RetryPolicy
from repro.simssd.traffic import TrafficKind


class SimFile:
    """An append-only byte file with page-accurate I/O accounting.

    Every append is one sequential write command charged for each page it
    spans, so a caller that writes a table block by block pays the page two
    blocks share twice; table writers buffer and append once.
    """

    def __init__(self, name: str, device: SimDevice) -> None:
        self.name = name
        self.device = device
        self._data = bytearray()
        self._allocated_pages = 0
        self._deleted = False

    # ------------------------------------------------------------- state

    @property
    def size(self) -> int:
        return len(self._data)

    @property
    def allocated_pages(self) -> int:
        return self._allocated_pages

    def _check_open(self) -> None:
        if self._deleted:
            raise ClosedError(f"file {self.name!r} has been deleted")
        self.device.check_power()

    def _ensure_pages(self, new_size: int) -> None:
        ps = self.device.page_size
        need = -(-new_size // ps)
        if need > self._allocated_pages:
            self.device.allocate(need - self._allocated_pages)
            self._allocated_pages = need

    # --------------------------------------------------------------- I/O

    def append(self, data: bytes, kind: TrafficKind) -> tuple[int, float]:
        """Append ``data`` as one sequential write; returns
        ``(offset, service_time)``."""
        self._check_open()
        if not data:
            return len(self._data), 0.0
        offset = len(self._data)
        self._ensure_pages(offset + len(data))
        pages = self._page_span(offset, len(data))
        try:
            service = self.device.write_pages(pages, kind)
        except PowerLossError as e:
            keep = self.device.injector.torn_prefix_len(len(data), e.torn_fraction)
            self._data.extend(data[:keep])
            raise
        inj = self.device.injector
        if inj is not None:
            # Latent flips are drawn per page written, however appends batch.
            ps = self.device.page_size
            cuts = [0, *range(ps - offset % ps, len(data), ps), len(data)]
            data = inj.corrupt_payload(data, list(zip(cuts, cuts[1:])))
        self._data.extend(data)
        return offset, service

    def read(
        self, offset: int, length: int, kind: TrafficKind, sequential: bool = False
    ) -> tuple[bytes, float]:
        """Read ``length`` bytes at ``offset``; returns ``(data, service_time)``."""
        self._check_open()
        if offset < 0 or offset + length > len(self._data):
            raise ReproError(
                f"read outside extent: [{offset}, {offset + length}) "
                f"in file of size {len(self._data)}"
            )
        if length == 0:
            return b"", 0.0
        pages = self._page_span(offset, length)
        service = self.device.read_pages(pages, kind, sequential)
        return bytes(self._data[offset : offset + length]), service

    def truncate(self, new_size: int) -> None:
        """Drop bytes past ``new_size`` and release now-unused whole pages.

        A metadata operation (no data I/O is charged), used by WAL recovery
        to cut a torn tail before reusing the log.
        """
        self._check_open()
        if new_size < 0 or new_size > len(self._data):
            raise ReproError(
                f"truncate to {new_size} outside [0, {len(self._data)}]"
            )
        del self._data[new_size:]
        ps = self.device.page_size
        need = -(-new_size // ps)
        if need < self._allocated_pages:
            self.device.trim(self._allocated_pages - need)
            self._allocated_pages = need

    def _page_span(self, offset: int, length: int) -> int:
        ps = self.device.page_size
        first = offset // ps
        last = (offset + length - 1) // ps
        return last - first + 1

    def delete(self) -> None:
        """Release all pages back to the device."""
        if self._deleted:
            return
        self.device.trim(self._allocated_pages)
        self._allocated_pages = 0
        self._data = bytearray()
        self._deleted = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimFile({self.name!r}, {self.size}B, {self._allocated_pages}p)"


class SimFilesystem:
    """Named files over one device."""

    def __init__(self, device: SimDevice) -> None:
        self.device = device
        self._files: Dict[str, SimFile] = {}
        self._seq = 0

    def create(self, name: str | None = None) -> SimFile:
        """Create a new empty file.  Auto-names when ``name`` is None."""
        if name is None:
            name = f"f{self._seq:08d}"
            self._seq += 1
        if name in self._files:
            raise ReproError(f"file {name!r} already exists")
        f = SimFile(name, self.device)
        self._files[name] = f
        return f

    def open(self, name: str) -> SimFile:
        f = self._files.get(name)
        if f is None:
            raise ReproError(f"no such file: {name!r}")
        return f

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        f = self._files.pop(name, None)
        if f is None:
            raise ReproError(f"no such file: {name!r}")
        f.delete()

    def files(self) -> Iterator[SimFile]:
        return iter(list(self._files.values()))

    def post_crash_image(
        self,
        injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> "SimFilesystem":
        """Freeze the current media state into a fresh, powered-on filesystem.

        Returns a new :class:`SimFilesystem` over a new :class:`SimDevice`
        (same profile) holding byte-identical copies of every file —
        including any torn tail the crash left behind.  Restoring the image
        charges no I/O (it *is* the media); the new device starts with a
        clean traffic ledger and the given (or no) injector.
        """
        device = SimDevice(
            self.device.profile,
            injector=injector,
            retry_policy=retry_policy or self.device.retry_policy,
        )
        image = SimFilesystem(device)
        image._seq = self._seq
        for name, f in self._files.items():
            nf = image.create(name)
            if f._data:
                nf._ensure_pages(len(f._data))
                nf._data = bytearray(f._data)
        return image

    @property
    def used_bytes(self) -> int:
        return sum(f.allocated_pages for f in self._files.values()) * self.device.page_size

    def __len__(self) -> int:
        return len(self._files)
