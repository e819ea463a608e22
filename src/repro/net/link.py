"""The former home of the FIFO link, now :class:`repro.net.transport.Channel`.

``Link`` is kept as another name for the one channel class, so code that
names ``repro.net.link.Link`` reaches the same object.
"""

from repro.net.transport import Channel as Link

__all__ = ["Link"]
