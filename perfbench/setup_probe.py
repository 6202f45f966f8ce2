"""Set-up probe, run as a fresh child process for each ``setup_s`` sample.

It imports the package, builds a correlator with the default config and
pushes one frame: the cost a user pays before the first frame is processed.

    python3 perfbench/setup_probe.py FRAME_FILE '[[x0, y0, x1, y1, conf], ...]'
"""

import json
import sys


def main(frame_path: str, boxes_json: str) -> None:
    import polypstream
    from polypstream import formats

    correlator = polypstream.StreamCorrelator(polypstream.IscuConfig())
    frame = formats.read_image(frame_path)
    boxes = tuple(
        polypstream.ScoredBox(polypstream.BoundingBox(*b[:4]), b[4]) for b in json.loads(boxes_json)
    )
    meta = polypstream.FrameMeta(frame.width, frame.height, 0)
    correlator.push_frame(frame, polypstream.FrameDetections(meta, boxes))


if __name__ == "__main__":
    main(*sys.argv[1:])
