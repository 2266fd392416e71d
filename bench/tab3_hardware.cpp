/**
 * @file
 * Table III: the simulated machine configuration -- one node of the
 * paper's 5-node cluster (dual Intel Xeon E5645), as instantiated by the
 * harness defaults.
 */

#include <cstdio>

#include "cpu/config.h"
#include "mem/config.h"
#include "util/string_util.h"

int
main(int argc, char** argv)
{
    dcb::util::expect_at_most_arguments(argc, argv, 0);
    using namespace dcb;
    const auto memory = mem::westmere_memory_config();
    const auto core = cpu::westmere_core_config();

    std::printf("Table III: details of hardware configurations\n");
    std::printf("---------------------------------------------\n");
    std::printf("CPU Type: Intel Xeon E5645 (simulated)\n");
    std::printf("# Cores: 6 cores @ %.1fG\n", core.frequency_ghz);
    std::printf("# threads: 12 threads\n");
    std::printf("# Sockets: 2\n");
    std::printf("%s", memory.to_string().c_str());
    std::printf("Memory: 32 GB, DDR3 (flat model, %u-cycle load-to-use)\n",
                memory.memory_latency);
    std::printf("\nPipeline model:\n%s", core.to_string().c_str());
    return 0;
}
