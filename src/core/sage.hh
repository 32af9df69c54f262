/**
 * @file
 * Umbrella header for the SAGe core library: everything a downstream
 * user needs to compress, store and decompress genomic read sets with
 * the SAGe format.
 *
 * Quickstart — streaming sessions (io/session.hh):
 * @code
 *   sage::SageWriter writer("reads.sage");
 *   writer.add(read_set);
 *   writer.finish(reference);                    // streams to disk
 *
 *   sage::SageReader reader("reads.sage");       // header-only open
 *   sage::ReadSet all = reader.decodeAll();      // or:
 *   sage::ReadSet part = reader.decodeRange(2, 3);  // chunks 2..4 only
 * @endcode
 *
 * The whole-buffer wrappers remain for callers that hold archives in
 * memory:
 * @code
 *   sage::SageArchive ar = sage::sageCompress(read_set, reference);
 *   sage::ReadSet back = sage::sageDecompress(ar.bytes);
 * @endcode
 *
 * To serve one archive to many concurrent clients, open it through
 * service/service.hh instead (decoded-chunk cache + request
 * scheduling):
 * @code
 *   sage::SageArchiveService service("reads.sage");
 *   sage::ServiceSession client = service.openSession();
 *   while (client.hasNext()) process(client.next());
 * @endcode
 *
 * For storage/accelerator integration see ssd/sage_device.hh
 * (SAGe_Read / SAGe_Write interface commands, per-chunk LPN extents),
 * ssd/device_array.hh (chunk striping across a device array, Fig. 15)
 * and hw/sage_hw.hh (decompression hardware model).
 */

#ifndef SAGE_CORE_SAGE_HH
#define SAGE_CORE_SAGE_HH

#include "core/decoder.hh"
#include "core/encoder.hh"
#include "core/format.hh"
#include "core/tuned_array.hh"
#include "core/version.hh"
#include "io/session.hh"
#include "net/chaos_proxy.hh"
#include "net/client.hh"
#include "net/multi_archive.hh"
#include "net/server.hh"
#include "service/service.hh"

#endif // SAGE_CORE_SAGE_HH
